package dag

import (
	"bytes"
	"testing"
	"testing/quick"

	"socialchain/internal/cid"
	"socialchain/internal/sim"
)

// memStore is a minimal in-memory node store for tests.
type memStore struct {
	nodes map[cid.Cid]*Node
}

func newMemStore() *memStore { return &memStore{nodes: make(map[cid.Cid]*Node)} }

func (m *memStore) PutNode(n *Node) (cid.Cid, error) {
	c := n.Cid()
	m.nodes[c] = n
	return c, nil
}

func (m *memStore) GetNode(c cid.Cid) (*Node, error) {
	n, ok := m.nodes[c]
	if !ok {
		return nil, cidNotFound(c)
	}
	return n, nil
}

type cidNotFound cid.Cid

func (e cidNotFound) Error() string { return "node not found: " + cid.Cid(e).String() }

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	child := cid.SumRaw([]byte("child"))
	n := &Node{
		Data: []byte("payload"),
		Links: []Link{
			{Name: "a", Size: 7, Cid: child},
			{Name: "", Size: 0, Cid: cid.SumRaw([]byte("x"))},
		},
	}
	got, err := Decode(n.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, n.Data) {
		t.Fatal("data lost")
	}
	if len(got.Links) != 2 || got.Links[0].Name != "a" || got.Links[0].Size != 7 || !got.Links[0].Cid.Equals(child) {
		t.Fatalf("links lost: %+v", got.Links)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, {5, 'a'}} {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%v) accepted", b)
		}
	}
	// Trailing bytes must be rejected.
	n := &Node{Data: []byte("d")}
	enc := append(n.Encode(), 0)
	if _, err := Decode(enc); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestNodePropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(data []byte, names []string) bool {
		n := &Node{Data: data}
		for _, name := range names {
			if bytes.ContainsRune([]byte(name), 0) {
				continue
			}
			n.Links = append(n.Links, Link{Name: name, Size: uint64(len(name)), Cid: cid.SumRaw([]byte(name))})
		}
		got, err := Decode(n.Encode())
		if err != nil {
			return false
		}
		if !bytes.Equal(got.Data, n.Data) {
			return false
		}
		if len(got.Links) != len(n.Links) {
			return false
		}
		for i := range n.Links {
			if got.Links[i] != n.Links[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleChunkFileIsRawLeaf(t *testing.T) {
	store := newMemStore()
	data := []byte("single-chunk")
	root, size, err := BuildFile(store, [][]byte{data})
	if err != nil {
		t.Fatal(err)
	}
	if size != uint64(len(data)) {
		t.Fatalf("size = %d", size)
	}
	if root.Codec() != cid.CodecRaw {
		t.Fatalf("single-chunk root codec %#x, want raw", root.Codec())
	}
	if !root.Equals(cid.SumRaw(data)) {
		t.Fatal("single-chunk CID is not the content hash")
	}
}

func TestBuildAndReassembleMultiLevel(t *testing.T) {
	store := newMemStore()
	rng := sim.NewRNG(5)
	var chunks [][]byte
	var want []byte
	for i := 0; i < 20; i++ {
		c := rng.Bytes(1000 + i)
		chunks = append(chunks, c)
		want = append(want, c...)
	}
	root, size, err := BuildFileFanout(store, chunks, 4) // forces 3 levels
	if err != nil {
		t.Fatal(err)
	}
	if size != uint64(len(want)) {
		t.Fatalf("size = %d, want %d", size, len(want))
	}
	got, err := Reassemble(store, root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reassembly mismatch")
	}
}

func TestBuildDeterministicAcrossStores(t *testing.T) {
	chunks := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	r1, _, _ := BuildFile(newMemStore(), chunks)
	r2, _, _ := BuildFile(newMemStore(), chunks)
	if !r1.Equals(r2) {
		t.Fatal("same chunks, different roots")
	}
}

func TestEmptyFile(t *testing.T) {
	store := newMemStore()
	root, size, err := BuildFile(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if size != 0 {
		t.Fatalf("empty size %d", size)
	}
	got, err := Reassemble(store, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file reassembled to %d bytes", len(got))
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	store := newMemStore()
	chunks := make([][]byte, 10)
	for i := range chunks {
		chunks[i] = []byte{byte(i)}
	}
	root, _, err := BuildFileFanout(store, chunks, 3)
	if err != nil {
		t.Fatal(err)
	}
	var cids []cid.Cid
	err = Walk(store, root, func(c cid.Cid, _ *Node) error {
		cids = append(cids, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 leaves + interior nodes; every stored node must be reachable.
	if len(cids) != len(store.nodes) {
		t.Fatalf("walk found %d nodes, store has %d", len(cids), len(store.nodes))
	}
	seen := make(map[cid.Cid]bool)
	for _, c := range cids {
		if seen[c] {
			t.Fatalf("walk visited %s twice", c)
		}
		seen[c] = true
	}
}

func TestReassembleMissingNode(t *testing.T) {
	store := newMemStore()
	chunks := [][]byte{bytes.Repeat([]byte("a"), 100), bytes.Repeat([]byte("b"), 100)}
	root, _, err := BuildFileFanout(store, chunks, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Remove a leaf.
	delete(store.nodes, cid.SumRaw(chunks[1]))
	if _, err := Reassemble(store, root); err == nil {
		t.Fatal("reassembly with missing node succeeded")
	}
}

func TestPropertyBuildReassemble(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	err := quick.Check(func(seed int64, nChunks uint8, fanout uint8) bool {
		store := newMemStore()
		rng := sim.NewRNG(seed)
		n := int(nChunks)%30 + 1
		f := int(fanout)%8 + 2
		var chunks [][]byte
		var want []byte
		for i := 0; i < n; i++ {
			c := rng.Bytes(rng.Intn(500) + 1)
			chunks = append(chunks, c)
			want = append(want, c...)
		}
		root, size, err := BuildFileFanout(store, chunks, f)
		if err != nil || size != uint64(len(want)) {
			return false
		}
		got, err := Reassemble(store, root)
		return err == nil && bytes.Equal(got, want)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTotalSize(t *testing.T) {
	leaf := &Node{Data: []byte("12345")}
	if leaf.TotalSize() != 5 {
		t.Fatalf("leaf size %d", leaf.TotalSize())
	}
	interior := &Node{Links: []Link{{Size: 3}, {Size: 4}}}
	if interior.TotalSize() != 7 {
		t.Fatalf("interior size %d", interior.TotalSize())
	}
}
