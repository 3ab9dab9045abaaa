package fabric

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"socialchain/internal/peer"
)

func TestSyncPeerNoopWhenConverged(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	for i := 0; i < 3; i++ {
		if _, err := gw.Submit("kv", "put", []byte{byte('a' + i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var max uint64
	for i := 0; i < 4; i++ {
		if h := net.ChannelAt(0).Peer(i).Ledger().Height(); h > max {
			max = h
		}
	}
	if !net.ChannelAt(0).WaitHeight(max, 5*time.Second) {
		t.Fatal("no convergence")
	}
	for i := 0; i < 4; i++ {
		n, err := net.ChannelAt(0).SyncPeer(i)
		if err != nil {
			t.Fatalf("sync peer %d: %v", i, err)
		}
		if n != 0 {
			t.Fatalf("converged peer %d synced %d blocks", i, n)
		}
	}
}

func TestSyncPeerCatchesUpManualLaggard(t *testing.T) {
	// Build a network, commit traffic, then construct a fresh network
	// sharing nothing and sync one of its peers directly from the first
	// network's freshest peer (exercising cross-instance catch-up).
	net := newTestNetwork(t, Config{NumPeers: 4, IdentitySeed: "sync-test"})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	for i := 0; i < 4; i++ {
		if _, err := gw.Submit("kv", "put", []byte(fmt.Sprintf("s%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	src := net.ChannelAt(0).Peer(0)
	// Ensure peer 0 is fully caught up first.
	var max uint64
	for i := 0; i < 4; i++ {
		if h := net.ChannelAt(0).Peer(i).Ledger().Height(); h > max {
			max = h
		}
	}
	if !net.ChannelAt(0).WaitHeight(max, 5*time.Second) {
		t.Fatal("no convergence")
	}

	// A network that does not know the first one's peers refuses its
	// chain: the synced blocks name their endorsers by key fingerprint, none
	// of which resolves there, so re-validation flags what the source
	// recorded as valid.
	strangers := openTestNetwork(t, Config{NumPeers: 4})
	strangers.MustDeploy(kvCC{})
	if _, err := strangers.ChannelAt(0).Peer(0).SyncFrom(src); !errors.Is(err, peer.ErrFlagMismatch) {
		t.Fatalf("sync into a network with other peer identities: %v", err)
	}

	// A brand-new network with the same membership (the deployment's
	// identity seed) is at genesis; its peer syncs from src and re-validates
	// the ORIGINAL endorsements against the members it derived itself.
	net2 := openTestNetwork(t, Config{NumPeers: 4, IdentitySeed: "sync-test"})
	net2.MustDeploy(kvCC{})
	laggard := net2.ChannelAt(0).Peer(0)
	n, err := laggard.SyncFrom(src)
	if err != nil {
		t.Fatalf("cross-network sync: %v", err)
	}
	if uint64(n) != src.Ledger().Height()-1 {
		t.Fatalf("synced %d blocks, want %d", n, src.Ledger().Height()-1)
	}
	if laggard.Ledger().TipHash() != src.Ledger().TipHash() {
		t.Fatal("laggard tip differs after sync")
	}
	vv, ok := laggard.State().GetState("kv", "s3")
	if !ok || string(vv.Value) != "v" {
		t.Fatal("laggard state incomplete")
	}
}

// TestDurableNetworkKeepsItsMembership: a chain names its endorsers by key
// fingerprint, so a durable deployment given no identity seed must come
// back with the peer keys it had — here, well enough that a peer whose
// directory was wiped re-validates the whole chain from a neighbour at
// open.
func TestDurableNetworkKeepsItsMembership(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NumPeers: 4, DataDir: dir}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.MustDeploy(kvCC{})
	net.Start()
	gw := net.ChannelAt(0).Gateway(newClient(t))
	for i := 0; i < 3; i++ {
		if _, err := gw.Submit("kv", "put", []byte(fmt.Sprintf("d%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	const height = 1 + 3 // genesis and one block per submit
	if !net.ChannelAt(0).WaitHeight(height, 5*time.Second) {
		t.Fatal("no convergence")
	}
	tip := net.ChannelAt(0).Peer(0).Ledger().TipHash()
	was := net.ChannelAt(0).Peer(3).Identity().Fingerprint()
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "peer3")); err != nil {
		t.Fatal(err)
	}

	again, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("reopen with one peer wiped: %v", err)
	}
	defer again.Close()
	if got := again.ChannelAt(0).Peer(3).Identity().Fingerprint(); got != was {
		t.Fatalf("peer3 came back with key %s, had %s", got, was)
	}
	if again.ChannelAt(0).Peer(3).Ledger().Height() != height || again.ChannelAt(0).Peer(3).Ledger().TipHash() != tip {
		t.Fatalf("wiped peer at height %d after the reopen's sync, want %d", again.ChannelAt(0).Peer(3).Ledger().Height(), height)
	}
}
