package statedb

import (
	"bytes"
	"strings"
	"testing"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := New()
	b := NewUpdateBatch()
	b.Put("data", "rec/1", []byte(`{"a":1}`))
	b.Put("data", "rec/2", []byte(`{"a":2}`))
	b.Put("trust", "score/x", []byte(`{"s":0.5}`))
	applyTx(src, b, Version{BlockNum: 3, TxNum: 1})

	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New()
	n, err := dst.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("restored %d keys", n)
	}
	vv, ok := dst.GetState("data", "rec/2")
	if !ok || string(vv.Value) != `{"a":2}` {
		t.Fatalf("restored value %q", vv.Value)
	}
	if vv.Version != (Version{BlockNum: 3, TxNum: 1}) {
		t.Fatalf("restored version %v", vv.Version)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *DB {
		db := New()
		b := NewUpdateBatch()
		b.Put("z", "k2", []byte("v2"))
		b.Put("a", "k1", []byte("v1"))
		b.Put("a", "k0", []byte("v0"))
		applyTx(db, b, Version{BlockNum: 1})
		return db
	}
	var s1, s2 bytes.Buffer
	if err := build().Snapshot(&s1); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot(&s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Fatal("snapshots not byte-identical")
	}
}

func TestRestoreIntoNonEmpty(t *testing.T) {
	db := New()
	b := NewUpdateBatch()
	b.Put("x", "k", []byte("v"))
	applyTx(db, b, Version{BlockNum: 1})
	if _, err := db.Restore(strings.NewReader("")); err == nil {
		t.Fatal("restore into non-empty db accepted")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	db := New()
	if _, err := db.Restore(strings.NewReader("garbage\n")); err == nil {
		t.Fatal("garbage restored")
	}
}

func TestSnapshotEmptyDB(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty snapshot has %d bytes", buf.Len())
	}
	n, err := New().Restore(&buf)
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}
