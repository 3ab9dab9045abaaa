package ipfs

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"socialchain/internal/sim"
)

func newTestCluster(t *testing.T, n int, opts Options) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Nodes: n, NodeOptions: opts})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestAddGetLocal(t *testing.T) {
	c := newTestCluster(t, 1, Options{ChunkSize: 1024})
	rng := sim.NewRNG(1)
	data := rng.Bytes(10 * 1024)
	root, err := c.Node(0).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Node(0).Get(root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("local round trip mismatch")
	}
}

func TestAddDeterministicCID(t *testing.T) {
	c := newTestCluster(t, 2, Options{ChunkSize: 2048})
	data := sim.NewRNG(2).Bytes(100 * 1024)
	r1, err := c.Node(0).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Node(1).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equals(r2) {
		t.Fatal("same content, different CIDs on different nodes")
	}
}

func TestCrossNodeFetch(t *testing.T) {
	c := newTestCluster(t, 2, Options{ChunkSize: 4096})
	data := sim.NewRNG(3).Bytes(64 * 1024)
	root, err := c.Node(0).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Node(1).Has(root) {
		t.Fatal("node 1 should not have the content yet")
	}
	got, err := c.Node(1).Get(root)
	if err != nil {
		t.Fatalf("cross-node get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-node data mismatch")
	}
	if !c.Node(1).Has(root) {
		t.Fatal("node 1 did not cache fetched content")
	}
	// Bitswap must have moved blocks.
	if c.Node(1).Bitswap().Stats().BlocksReceived.Load() == 0 {
		t.Fatal("no bitswap transfer recorded")
	}
}

func TestFetchFromThirdNodeAfterPropagation(t *testing.T) {
	c := newTestCluster(t, 4, Options{ChunkSize: 4096})
	data := sim.NewRNG(4).Bytes(32 * 1024)
	root, err := c.Node(0).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		got, err := c.Node(i).Get(root)
		if err != nil {
			t.Fatalf("node %d get: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("node %d data mismatch", i)
		}
	}
}

// TestReopenedClusterServesOtherNode: content one node added before a
// restart is served to the other node after it, with no announce step.
func TestReopenedClusterServesOtherNode(t *testing.T) {
	cfg := ClusterConfig{Nodes: 2, DataDir: t.TempDir(), NodeOptions: Options{ChunkSize: 4096}}
	data := sim.NewRNG(12).Bytes(64 * 1024)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root, err := c.Node(0).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Node(1).Get(root)
	if err != nil {
		t.Fatalf("node 1 get after reopen: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("node 1 got different bytes after reopen")
	}
}

// messageLog is a sim.LatencyModel that records every message it delays,
// in order, and delays none.
type messageLog struct {
	mu   sync.Mutex
	msgs [][2]string // from, to
}

func (l *messageLog) Delay(from, to string) time.Duration {
	l.mu.Lock()
	l.msgs = append(l.msgs, [2]string{from, to})
	l.mu.Unlock()
	return 0
}

// TestFetchAsksRootHolderFirst: when only one node of four holds a DAG, a
// fetch costs the non-holders one failed want each for the root and none
// for the rest, because the node that served the root is asked first.
func TestFetchAsksRootHolderFirst(t *testing.T) {
	log := &messageLog{}
	c, err := NewCluster(ClusterConfig{Nodes: 4, Latency: log, NodeOptions: Options{ChunkSize: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	data := sim.NewRNG(13).Bytes(64 * 1024) // 16 leaves under one root
	root, err := c.Node(3).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Node(0).Get(root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}
	holder, fetcher := c.Node(3).Name(), c.Node(0).Name()
	missed, firstReply := 0, -1
	for i, m := range log.msgs {
		switch {
		case m == [2]string{holder, fetcher} && firstReply < 0:
			firstReply = i
		case m[0] == fetcher && m[1] != holder:
			missed++
			if firstReply >= 0 {
				t.Errorf("message %d: a want to non-holder %s after the root arrived", i, m[1])
			}
		}
	}
	if missed > 2 {
		t.Fatalf("%d wants to non-holders, want at most 2", missed)
	}
}

func TestGetMissingContent(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	// Content added to a node outside the cluster: node 1 asks node 0,
	// which does not hold it.
	data := sim.NewRNG(5).Bytes(1024)
	phantomRoot, err := newTestCluster(t, 1, Options{}).Node(0).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).Get(phantomRoot); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	root, err := c.Node(0).Add(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Node(0).Get(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty payload round-tripped to %d bytes", len(got))
	}
}

func TestStat(t *testing.T) {
	c := newTestCluster(t, 1, Options{ChunkSize: 1024, Fanout: 4})
	data := sim.NewRNG(6).Bytes(10 * 1024) // 10 chunks + interior nodes
	root, err := c.Node(0).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Node(0).Stat(root)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalSize != uint64(len(data)) {
		t.Fatalf("TotalSize = %d", st.TotalSize)
	}
	if st.Blocks < 10 {
		t.Fatalf("Blocks = %d, want >= 10", st.Blocks)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Nodes: 0}); err == nil {
		t.Fatal("zero-node cluster accepted")
	}
}

func TestPropertyAddGetRoundTrip(t *testing.T) {
	c := newTestCluster(t, 2, Options{ChunkSize: 1024})
	cfg := &quick.Config{MaxCount: 15}
	err := quick.Check(func(seed int64, sizeSeed uint32) bool {
		size := int(sizeSeed % (256 * 1024))
		data := sim.NewRNG(seed).Bytes(size)
		root, err := c.Node(0).Add(data)
		if err != nil {
			return false
		}
		got, err := c.Node(1).Get(root)
		return err == nil && bytes.Equal(got, data)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestHasDetectsMissingChildBlock is the regression test for the old
// walker-based Has: when an interior block was present but a child was
// missing, the walk aborted with a lookup error before the presence check
// ran and Has wrongly reported true.
func TestHasDetectsMissingChildBlock(t *testing.T) {
	c := newTestCluster(t, 2, Options{ChunkSize: 1024})
	full, node := c.Node(0), c.Node(1)
	data := sim.NewRNG(11).Bytes(16 * 1024) // 16 leaf chunks + interior root
	root, err := full.Add(data)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Has(root) {
		t.Fatal("complete DAG reported missing")
	}
	// Node 1 holds the root and all but one leaf: the root is present, the
	// DAG is not.
	top, err := full.Blockstore().Get(root)
	if err != nil {
		t.Fatal(err)
	}
	rootNode, err := decodeBlock(top)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range rootNode.Links {
		b, err := full.Blockstore().Get(l.Cid)
		if err != nil {
			t.Fatal(err)
		}
		if i != 7 {
			if err := node.Blockstore().Put(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := node.Blockstore().Put(top); err != nil {
		t.Fatal(err)
	}
	if node.Has(root) {
		t.Fatal("Has reported a gapped DAG as complete")
	}
}

// TestGetReassemblesFromFetchedNodes pins down the single-walk Get: the
// payload must round-trip across nodes (fetch path) and locally (cache
// path) through the node set the fetch decoded.
func TestGetReassemblesFromFetchedNodes(t *testing.T) {
	c := newTestCluster(t, 2, Options{ChunkSize: 512})
	data := bytes.Repeat([]byte("abcd"), 4096) // repeated chunks share CIDs
	root, err := c.Node(0).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // remote fetch, then fully local
		got, err := c.Node(1).Get(root)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pass %d: payload mismatch", pass)
		}
	}
}

// TestRootCIDsGolden pins the root CID of payloads around the default
// chunk size: how the chunker sizes its read buffers must never move a
// chunk boundary.
func TestRootCIDsGolden(t *testing.T) {
	node := newTestCluster(t, 1, Options{}).Node(0)
	for _, g := range []struct {
		size int
		want string
	}{
		{0, "bafkreihdwdcefgh4dqkjv67uzcmw7ojee6xedzdetojuzjevtenxquvyku"},
		{1, "bafkreiemev2isidd7gk7352wxtqh6rwbuumt4vgnkkbx5wi6giaizt2bvq"},
		{4 << 10, "bafkreiby5xhqwg7qln6t34uzmzquromvdv33vw3wqcyzn4eqbfwp6pnlka"},
		{256<<10 - 1, "bafkreihty33nemj5iquuohrtbu73tppg4hvvl3s6smaojeovnkuz6ts7ky"},
		{256 << 10, "bafkreifxvurgimkfxptvoilcillipzbqvu5p4dg7wtumopeawhgiugnjwm"},
		{256<<10 + 1, "bafybeifs452azwoskhmtge67iyyoibayzxd6u6mxfb6lru6i6s2erfiwha"},
		{1 << 20, "bafybeifejvapahxvjkvf5dq7762m5k3gbggdafpfihzymhtyczoe6uwilm"},
	} {
		root, err := node.Add(sim.NewRNG(int64(g.size)).Bytes(g.size))
		if err != nil {
			t.Fatal(err)
		}
		if root.String() != g.want {
			t.Errorf("%d bytes: root %s, want %s", g.size, root, g.want)
		}
	}
}
