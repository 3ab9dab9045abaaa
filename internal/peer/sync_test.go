package peer

import (
	"errors"
	"testing"

	"socialchain/internal/chaincode"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/statedb"
)

// twinPeers builds two peers with identical config sharing nothing.
func twinPeers(t *testing.T) (*Peer, *Peer, *msp.Signer) {
	t.Helper()
	reg := chaincode.NewRegistry()
	if err := reg.Register(counterCC{}); err != nil {
		t.Fatal(err)
	}
	mk := func(id string) *Peer {
		p, err := New(Config{ID: id, ChannelID: "ch", Signer: testSigner(id), Registry: reg, Policy: anyOne,
			Identities: testMembers})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	client, err := msp.NewSigner("c", "client", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	return mk("peerA"), mk("peerB"), client
}

// commitOn runs one endorsed counter increment on the peer.
func commitOn(t *testing.T, p *Peer, client *msp.Signer, key string) {
	t.Helper()
	prop := propose(t, client, "incr", []byte(key))
	resp, err := p.Endorse(prop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CommitBatch([]ledger.Transaction{envelope(t, client, prop, resp)}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncFromCatchesUp(t *testing.T) {
	a, b, client := twinPeers(t)
	for i := 0; i < 5; i++ {
		commitOn(t, a, client, "ctr")
	}
	if a.Ledger().Height() != 6 { // genesis + 5
		t.Fatalf("source height %d", a.Ledger().Height())
	}
	n, err := b.SyncFrom(a)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("synced %d blocks", n)
	}
	if b.Ledger().Height() != a.Ledger().Height() || b.Ledger().TipHash() != a.Ledger().TipHash() {
		t.Fatal("peers diverge after sync")
	}
	// World state caught up too.
	vv, ok := b.State().GetState("counter", "ctr")
	if !ok || string(vv.Value) != "5" {
		t.Fatalf("synced state = %v %q", ok, vv.Value)
	}
	if vv.Version != (statedb.Version{BlockNum: 5}) {
		t.Fatalf("synced state version = %+v, want block 5's", vv.Version)
	}
}

func TestSyncFromIsIncremental(t *testing.T) {
	a, b, client := twinPeers(t)
	commitOn(t, a, client, "x")
	if _, err := b.SyncFrom(a); err != nil {
		t.Fatal(err)
	}
	commitOn(t, a, client, "x")
	n, err := b.SyncFrom(a)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("incremental sync applied %d blocks", n)
	}
}

func TestSyncFromNothingToDo(t *testing.T) {
	a, b, _ := twinPeers(t)
	n, err := b.SyncFrom(a)
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

// forgedFlags is a BlockSource that lies about the outcome of every
// transaction it hands out.
type forgedFlags struct{ *Peer }

func (f forgedFlags) BlocksFrom(from uint64) ([]*ledger.Block, error) {
	blocks, err := f.Peer.BlocksFrom(from) // decoded afresh from the log
	for _, b := range blocks {
		for i := range b.Metadata.Flags {
			b.Metadata.Flags[i] = ledger.MVCCConflict
		}
	}
	return blocks, err
}

func TestSyncRejectsForgedFlags(t *testing.T) {
	a, b, client := twinPeers(t)
	// Commit a valid transaction on a, then sync b from a source that
	// reports it invalid: the syncing peer's re-validation disagrees.
	commitOn(t, a, client, "y")
	_, serr := b.SyncFrom(forgedFlags{a})
	if !errors.Is(serr, ErrFlagMismatch) {
		t.Fatalf("want ErrFlagMismatch, got %v", serr)
	}
	if b.Height() != 1 {
		t.Fatalf("a forged block landed: height %d", b.Height())
	}
}

func TestSyncedPeerCanContinueCommitting(t *testing.T) {
	a, b, client := twinPeers(t)
	for i := 0; i < 3; i++ {
		commitOn(t, a, client, "z")
	}
	if _, err := b.SyncFrom(a); err != nil {
		t.Fatal(err)
	}
	// The synced peer endorses and commits the next transaction itself.
	commitOn(t, b, client, "z")
	vv, _ := b.State().GetState("counter", "z")
	if string(vv.Value) != "4" {
		t.Fatalf("counter after continued commits = %q", vv.Value)
	}
	if err := b.Ledger().VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitBatchSkipsSyncedBatch: a replica that copied a block through
// SyncFrom and is then handed the same batch by consensus must not commit
// it again — one duplicate block would leave it a block ahead of every
// other replica for good.
func TestCommitBatchSkipsSyncedBatch(t *testing.T) {
	for _, durable := range []bool{false, true} {
		a, b, client := twinPeers(t)
		if durable {
			b.Close()
			b, _ = durablePeer(t, t.TempDir())
		}
		prop := propose(t, client, "incr", []byte("ctr"))
		resp, err := a.Endorse(prop)
		if err != nil {
			t.Fatal(err)
		}
		batch := []ledger.Transaction{envelope(t, client, prop, resp)}
		want, err := a.CommitBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.SyncFrom(a); err != nil {
			t.Fatal(err)
		}
		got, err := b.CommitBatch(batch) // consensus delivers what sync already brought
		if err != nil {
			t.Fatal(err)
		}
		if got.Header.Hash() != want.Header.Hash() || b.Ledger().Height() != a.Ledger().Height() {
			t.Fatalf("durable=%v: redelivered batch moved the replica to height %d (source %d)", durable, b.Ledger().Height(), a.Ledger().Height())
		}
		if vv, _ := b.State().GetState("counter", "ctr"); string(vv.Value) != "1" {
			t.Fatalf("durable=%v: counter = %q after a redelivered batch, want 1", durable, vv.Value)
		}
		a.Close()
		b.Close()
	}
}
