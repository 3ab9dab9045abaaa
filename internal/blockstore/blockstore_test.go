package blockstore

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"socialchain/internal/cid"
	"socialchain/internal/storage"
)

func TestPutGetRoundTrip(t *testing.T) {
	m := NewMem()
	b := NewBlock([]byte("hello"))
	if err := m.Put(b); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get(b.Cid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, b.Data) {
		t.Fatal("data mismatch")
	}
	if !m.Has(b.Cid) {
		t.Fatal("Has false after Put")
	}
}

func TestGetMissing(t *testing.T) {
	m := NewMem()
	_, err := m.Get(cid.SumRaw([]byte("absent")))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestPutRejectsCorruptBlock(t *testing.T) {
	m := NewMem()
	b := NewBlock([]byte("data"))
	b.Data = []byte("tampered")
	if err := m.Put(b); err == nil {
		t.Fatal("corrupt block accepted")
	}
	// Undefined CID rejected too.
	if err := m.Put(Block{Data: []byte("x")}); err == nil {
		t.Fatal("undefined cid accepted")
	}
}

func TestPutIdempotent(t *testing.T) {
	m := NewMem()
	b := NewBlock([]byte("once"))
	if err := m.Put(b); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(b); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Put", m.Len())
	}
	if m.SizeBytes() != uint64(len(b.Data)) {
		t.Fatalf("SizeBytes = %d", m.SizeBytes())
	}
}

func TestDelete(t *testing.T) {
	m := NewMem()
	b := NewBlock([]byte("doomed"))
	if err := m.Put(b); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(b.Cid); err != nil {
		t.Fatal(err)
	}
	if m.Has(b.Cid) {
		t.Fatal("block survived delete")
	}
	if m.SizeBytes() != 0 {
		t.Fatalf("SizeBytes = %d after delete", m.SizeBytes())
	}
	// Deleting again is a no-op.
	if err := m.Delete(b.Cid); err != nil {
		t.Fatal(err)
	}
}

func TestAllKeysSorted(t *testing.T) {
	m := NewMem()
	for i := 0; i < 20; i++ {
		if err := m.Put(NewBlock([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	keys := m.AllKeys()
	if len(keys) != 20 {
		t.Fatalf("got %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1].Bytes(), keys[i].Bytes()) >= 0 {
			t.Fatal("keys not sorted")
		}
	}
}

func TestGetReturnsCopy(t *testing.T) {
	m := NewMem()
	b := NewBlock([]byte("immutable"))
	if err := m.Put(b); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Get(b.Cid)
	got.Data[0] = 'X'
	again, _ := m.Get(b.Cid)
	if again.Data[0] == 'X' {
		t.Fatal("internal buffer aliased to caller")
	}
}

func TestPropertyPutGet(t *testing.T) {
	m := NewMem()
	err := quick.Check(func(data []byte) bool {
		b := NewBlock(data)
		if err := m.Put(b); err != nil {
			return false
		}
		got, err := m.Get(b.Cid)
		return err == nil && bytes.Equal(got.Data, data)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPinnerCounts(t *testing.T) {
	p := NewPinner()
	c := cid.SumRaw([]byte("root"))
	if p.IsPinned(c) {
		t.Fatal("fresh pinner has pin")
	}
	p.Pin(c)
	p.Pin(c)
	p.Unpin(c)
	if !p.IsPinned(c) {
		t.Fatal("double-pinned root lost after one unpin")
	}
	p.Unpin(c)
	if p.IsPinned(c) {
		t.Fatal("root still pinned after matching unpins")
	}
	p.Unpin(c) // extra unpin is a no-op
}

func TestPinnerRootsSorted(t *testing.T) {
	p := NewPinner()
	a, b := cid.SumRaw([]byte("a")), cid.SumRaw([]byte("b"))
	p.Pin(b)
	p.Pin(a)
	roots := p.Roots()
	if len(roots) != 2 {
		t.Fatalf("roots = %d", len(roots))
	}
	if bytes.Compare(roots[0].Bytes(), roots[1].Bytes()) >= 0 {
		t.Fatal("roots not sorted")
	}
}

func TestGCKeepsPinnedReachable(t *testing.T) {
	m := NewMem()
	pinned := NewBlock([]byte("pinned"))
	child := NewBlock([]byte("child"))
	garbage := NewBlock([]byte("garbage"))
	for _, b := range []Block{pinned, child, garbage} {
		if err := m.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPinner()
	p.Pin(pinned.Cid)
	reach := func(root cid.Cid) ([]cid.Cid, error) {
		if root.Equals(pinned.Cid) {
			return []cid.Cid{pinned.Cid, child.Cid}, nil
		}
		return []cid.Cid{root}, nil
	}
	removed, err := GC(m, p, reach)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed %d blocks, want 1", removed)
	}
	if !m.Has(pinned.Cid) || !m.Has(child.Cid) {
		t.Fatal("GC removed reachable blocks")
	}
	if m.Has(garbage.Cid) {
		t.Fatal("GC kept garbage")
	}
}

func TestGCEmptyPinsetClearsStore(t *testing.T) {
	m := NewMem()
	for i := 0; i < 5; i++ {
		if err := m.Put(NewBlock([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := GC(m, NewPinner(), func(cid.Cid) ([]cid.Cid, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if removed != 5 || m.Len() != 0 {
		t.Fatalf("removed=%d len=%d", removed, m.Len())
	}
}

// TestReopenReadsNoBlock: opening a durable store of N blocks must not
// read one of them — SizeBytes is computed when asked, not kept — and the
// figure it then gives is exact across a reopen, a duplicate Put and a
// Delete.
func TestReopenReadsNoBlock(t *testing.T) {
	cfg := storage.Config{Engine: storage.EnginePersist, Dir: t.TempDir()}
	m, err := NewMemWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []Block
	var want uint64
	for i := 0; i < 200; i++ {
		b := NewBlock(bytes.Repeat([]byte{byte(i)}, 100+i))
		if err := m.Put(b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		want += uint64(len(b.Data))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m, err = NewMemWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.kv.(*storage.Persist).Stats()
	if st.SSTables == 0 || st.BlockReads != 0 || st.OpenWALRecords != 0 {
		t.Fatalf("open of %d blocks in %d tables read %d table blocks and replayed %d records, want 0 and 0",
			len(blocks), st.SSTables, st.BlockReads, st.OpenWALRecords)
	}
	if m.Len() != len(blocks) || m.SizeBytes() != want {
		t.Fatalf("reopened Len/SizeBytes = %d/%d, want %d/%d", m.Len(), m.SizeBytes(), len(blocks), want)
	}
	if err := m.Put(blocks[7]); err != nil {
		t.Fatal(err)
	}
	if got := m.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d after a duplicate Put, want %d", got, want)
	}
	if err := m.Delete(blocks[7].Cid); err != nil {
		t.Fatal(err)
	}
	if got := m.SizeBytes(); got != want-uint64(len(blocks[7].Data)) {
		t.Fatalf("SizeBytes = %d after Delete, want %d", got, want-uint64(len(blocks[7].Data)))
	}
}
