package bitswap

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"socialchain/internal/blockstore"
	"socialchain/internal/cid"
	"socialchain/internal/sim"
)

// newStore opens a blockstore on a temporary file, closed with the test.
func newStore(t *testing.T) *blockstore.Store {
	t.Helper()
	s, err := blockstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func twoEngines(t *testing.T) (*Engine, *Engine) {
	t.Helper()
	net := NewNetwork(nil, nil)
	a := net.NewEngine("a", newStore(t))
	b := net.NewEngine("b", newStore(t))
	return a, b
}

func TestFetchBlockFromPeer(t *testing.T) {
	a, b := twoEngines(t)
	blk := blockstore.NewBlock([]byte("shared-block"))
	if err := b.bs.Put(blk); err != nil {
		t.Fatal(err)
	}
	got, from, err := a.FetchBlock(blk.Cid(), []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data(), blk.Data()) || from != "b" {
		t.Fatalf("fetched %q from %q", got.Data(), from)
	}
	// The block is now cached locally.
	if !a.bs.Has(blk.Cid()) {
		t.Fatal("fetched block not stored locally")
	}
	// Stats moved.
	if a.Stats().BlocksReceived.Load() != 1 || b.Stats().BlocksSent.Load() != 1 {
		t.Fatal("stats not recorded")
	}
}

func TestFetchBlockLocalShortCircuit(t *testing.T) {
	a, b := twoEngines(t)
	blk := blockstore.NewBlock([]byte("local"))
	if err := a.bs.Put(blk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.FetchBlock(blk.Cid(), nil); err != nil {
		t.Fatal(err)
	}
	if b.Stats().BlocksSent.Load() != 0 {
		t.Fatal("local fetch hit the network")
	}
}

func TestFetchBlockUnavailable(t *testing.T) {
	a, _ := twoEngines(t)
	_, _, err := a.FetchBlock(cid.SumRaw([]byte("missing")), []string{"b"})
	if !errors.Is(err, ErrBlockUnavailable) {
		t.Fatalf("want ErrBlockUnavailable, got %v", err)
	}
}

func TestFetchBlockSkipsDeadProviders(t *testing.T) {
	a, b := twoEngines(t)
	blk := blockstore.NewBlock([]byte("resilient"))
	if err := b.bs.Put(blk); err != nil {
		t.Fatal(err)
	}
	// "ghost" is not registered; "a" is self and skipped; "b" has it.
	got, _, err := a.FetchBlock(blk.Cid(), []string{"ghost", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data(), blk.Data()) {
		t.Fatal("data mismatch")
	}
}

func TestFetchManyParallel(t *testing.T) {
	net := NewNetwork(nil, nil)
	src := net.NewEngine("src", newStore(t))
	dst := net.NewEngine("dst", newStore(t))
	rng := sim.NewRNG(2)
	var cids []cid.Cid
	for i := 0; i < 50; i++ {
		blk := blockstore.NewBlock(rng.Bytes(512))
		if err := src.bs.Put(blk); err != nil {
			t.Fatal(err)
		}
		cids = append(cids, blk.Cid())
	}
	if err := dst.NewSession().FetchMany(cids); err != nil {
		t.Fatal(err)
	}
	for _, c := range cids {
		if !dst.bs.Has(c) {
			t.Fatalf("missing %s after FetchMany", c)
		}
	}
	if got := dst.Stats().BlocksReceived.Load(); got != 50 {
		t.Fatalf("received %d blocks", got)
	}
}

func TestFetchManyPartialFailure(t *testing.T) {
	net := NewNetwork(nil, nil)
	src := net.NewEngine("src", newStore(t))
	dst := net.NewEngine("dst", newStore(t))
	have := blockstore.NewBlock([]byte("present"))
	if err := src.bs.Put(have); err != nil {
		t.Fatal(err)
	}
	missing := cid.SumRaw([]byte("absent"))
	err := dst.NewSession().FetchMany([]cid.Cid{have.Cid(), missing})
	if err == nil {
		t.Fatal("FetchMany must fail when a block is unavailable")
	}
}

func TestFetchManyEmpty(t *testing.T) {
	a, _ := twoEngines(t)
	if err := a.NewSession().FetchMany(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptProviderCannotPoison(t *testing.T) {
	// A provider returning bytes that do not match the CID must be ignored.
	net := NewNetwork(nil, nil)
	net.engines["evil"] = liar{}
	honest := net.NewEngine("honest", newStore(t))
	want := cid.SumRaw([]byte("the-truth"))
	_, _, err := honest.FetchBlock(want, []string{"evil"})
	if !errors.Is(err, ErrBlockUnavailable) {
		t.Fatalf("poisoned block accepted: %v", err)
	}
	if honest.bs.Has(want) || honest.bs.Len() != 0 {
		t.Fatal("corrupt block stored")
	}
}

// liar claims to hold every block but replies with wrong bytes.
type liar struct{}

func (liar) serve(cid.Cid) ([]byte, bool) { return []byte("lies"), true }

func TestManyEnginesChain(t *testing.T) {
	// dst fetches from mid, which already fetched from src: content flows
	// through the swarm.
	net := NewNetwork(nil, nil)
	src := net.NewEngine("src", newStore(t))
	mid := net.NewEngine("mid", newStore(t))
	dst := net.NewEngine("dst", newStore(t))
	blk := blockstore.NewBlock([]byte("chained"))
	if err := src.bs.Put(blk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mid.FetchBlock(blk.Cid(), []string{"src"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dst.FetchBlock(blk.Cid(), []string{"mid"}); err != nil {
		t.Fatal(err)
	}
	if !dst.bs.Has(blk.Cid()) {
		t.Fatal("content did not propagate")
	}
}

func TestUnknownPeerError(t *testing.T) {
	net := NewNetwork(nil, nil)
	_, err := net.lookup("nobody")
	if err == nil {
		t.Fatal("unknown peer lookup succeeded")
	}
	if msg := fmt.Sprint(err); msg == "" {
		t.Fatal("empty error message")
	}
}
