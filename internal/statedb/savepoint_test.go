package statedb

import (
	"bytes"
	"testing"

	"socialchain/internal/storage"
)

func savepointUpdates(val string) []TxUpdate {
	b := NewUpdateBatch()
	b.Put("cc", "k", []byte(val))
	return []TxUpdate{{Batch: b, Version: Version{BlockNum: 1}}}
}

// TestSavepointTracksApplyBlockAt: the savepoint advances with every
// ApplyBlockAt — including blocks with no writes — and is absent on a
// fresh database.
func TestSavepointTracksApplyBlockAt(t *testing.T) {
	db := New()
	if _, ok := db.Savepoint(); ok {
		t.Fatal("fresh db has a savepoint")
	}
	db.ApplyBlockAt(savepointUpdates("v1"), 1)
	if sp, ok := db.Savepoint(); !ok || sp != 1 {
		t.Fatalf("savepoint = %d/%v, want 1", sp, ok)
	}
	// An empty block still advances the savepoint.
	db.ApplyBlockAt(nil, 2)
	if sp, ok := db.Savepoint(); !ok || sp != 2 {
		t.Fatalf("savepoint after empty block = %d/%v, want 2", sp, ok)
	}
}

// TestSavepointInvisibleToStateAPIs: the reserved key never shows up in
// namespaces, scans or snapshots — two states that differ only in their
// savepoints must stay byte-identical.
func TestSavepointInvisibleToStateAPIs(t *testing.T) {
	at1 := New()
	at1.ApplyBlockAt(savepointUpdates("v"), 1)
	at9 := New()
	at9.ApplyBlockAt(savepointUpdates("v"), 9)

	if ns := at1.Namespaces(); len(ns) != 1 || ns[0] != "cc" {
		t.Fatalf("namespaces = %v", ns)
	}
	var a, b bytes.Buffer
	if err := at1.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := at9.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("savepoint leaked into snapshot:\nat 1: %s\nat 9: %s", a.Bytes(), b.Bytes())
	}
}

// TestSavepointAtomicWithBlockBatch: on the persist engine the savepoint
// rides in the same WAL record as the block's writes, so a reopened
// database either has both or neither.
func TestSavepointAtomicWithBlockBatch(t *testing.T) {
	dir := t.TempDir()
	cfg := storage.Config{Engine: storage.EnginePersist, Dir: dir}
	db, err := NewWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.ApplyBlockAt(savepointUpdates("v1"), 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sp, ok := re.Savepoint()
	if !ok || sp != 1 {
		t.Fatalf("reopened savepoint = %d/%v, want 1", sp, ok)
	}
	if vv, ok := re.GetState("cc", "k"); !ok || string(vv.Value) != "v1" {
		t.Fatalf("reopened state = %q/%v", vv.Value, ok)
	}
}
