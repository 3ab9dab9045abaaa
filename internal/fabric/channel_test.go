package fabric

import (
	"testing"
	"time"

	"socialchain/internal/ledger"
)

func TestSingleChannelKeepsVerbatimName(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	if got := net.NumChannels(); got != 1 {
		t.Fatalf("NumChannels = %d, want 1", got)
	}
	if got := net.DefaultChannel().Name(); got != "traffic-channel" {
		t.Fatalf("default channel name = %q, want traffic-channel (verbatim at N=1)", got)
	}
	if net.Channel("traffic-channel") != net.DefaultChannel() {
		t.Fatal("Channel(name) did not resolve the default channel")
	}
}

func TestMultiChannelNamesAndLookup(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4, NumChannels: 3})
	if got := net.NumChannels(); got != 3 {
		t.Fatalf("NumChannels = %d, want 3", got)
	}
	want := []string{"traffic-channel-0", "traffic-channel-1", "traffic-channel-2"}
	for i, name := range want {
		ch := net.ChannelAt(i)
		if ch.Name() != name {
			t.Fatalf("channel %d name = %q, want %q", i, ch.Name(), name)
		}
		if net.Channel(name) != ch {
			t.Fatalf("Channel(%q) did not resolve channel %d", name, i)
		}
	}
	if net.Channel("nope") != nil {
		t.Fatal("Channel on unknown name should return nil")
	}
	for _, key := range []string{"a", "gov/admin", "crowd/user-17"} {
		if got, want := net.ChannelFor(key), net.ChannelAt(RouteKey(key, 3)); got != want {
			t.Fatalf("ChannelFor(%q) = %s, want %s", key, got.Name(), want.Name())
		}
	}
}

// TestMultiChannelIsolation proves channels are independent shards: a
// transaction committed on one channel is invisible to the others — their
// world state has no key and their chains gain no block.
func TestMultiChannelIsolation(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4, NumChannels: 3})
	client := newClient(t)

	gw0 := net.ChannelAt(0).Gateway(client)
	res, err := gw0.Submit("kv", "put", []byte("only-on-0"), []byte("v"))
	if err != nil {
		t.Fatalf("submit on channel 0: %v", err)
	}
	if res.Flag != ledger.Valid {
		t.Fatalf("flag = %s, want VALID", res.Flag)
	}

	got, err := gw0.Evaluate("kv", "get", []byte("only-on-0"))
	if err != nil || string(got) != "v" {
		t.Fatalf("channel 0 get = %q, %v; want v", got, err)
	}
	for i := 1; i < 3; i++ {
		gw := net.ChannelAt(i).Gateway(client)
		other, err := gw.Evaluate("kv", "get", []byte("only-on-0"))
		if err != nil {
			t.Fatalf("channel %d evaluate: %v", i, err)
		}
		if len(other) != 0 {
			t.Fatalf("channel %d sees channel 0's key: %q", i, other)
		}
		// Idle channels stay at their genesis block with no transactions.
		if s := net.ChannelAt(i).Peer(0).Ledger().Stats(); s.TotalTxs != 0 {
			t.Fatalf("channel %d carries %d txs, want 0 (no cross-channel commits)", i, s.TotalTxs)
		}
	}
	// Validators deliver independently, so give the inspected peer a
	// moment to apply the commit everywhere on channel 0.
	if !net.ChannelAt(0).WaitHeight(2, 5*time.Second) {
		t.Fatal("channel 0 peers did not all reach the commit")
	}
	if s := net.ChannelAt(0).Peer(0).Ledger().Stats(); s.TotalTxs != 1 {
		t.Fatalf("channel 0 carries %d txs, want 1", s.TotalTxs)
	}
}
