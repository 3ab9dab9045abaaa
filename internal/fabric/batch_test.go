package fabric

import (
	"encoding/json"
	"testing"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/ledger"
	"socialchain/internal/ordering"
)

// TestSubmitBatchAtomicLifecycle submits a batched envelope of increments
// on one key and checks the per-call responses, the single-transaction
// commit and the final state on every peer.
func TestSubmitBatchAtomicLifecycle(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4, Cutter: ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond}})
	gw := net.ChannelAt(0).Gateway(newClient(t))

	calls := make([]chaincode.BatchCall, 5)
	for i := range calls {
		calls[i] = chaincode.BatchCall{Chaincode: "kv", Fn: "increment", Args: [][]byte{[]byte("n")}}
	}
	res, err := gw.SubmitBatch(calls)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if res.Flag != ledger.Valid {
		t.Fatalf("batch flagged %s", res.Flag)
	}
	var responses [][]byte
	if err := json.Unmarshal(res.Response, &responses); err != nil {
		t.Fatalf("decode responses: %v", err)
	}
	if len(responses) != 5 || string(responses[4]) != "5" {
		t.Fatalf("responses = %q", responses)
	}
	// Wait for the block that carries the batch, not peer 0's current
	// height: commit confirmation may come from another peer, so peer 0
	// can still be behind when this line runs.
	if !net.ChannelAt(0).WaitHeight(res.BlockNum+1, 5*time.Second) {
		t.Fatal("peers did not converge")
	}
	raw, err := gw.Evaluate("kv", "get", []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "5" {
		t.Fatalf("n = %s, want 5 (one atomic envelope)", raw)
	}
	// The whole batch is one ledger transaction.
	tx, flag, _, err := net.ChannelAt(0).Peer(0).Ledger().GetTx(res.TxID)
	if err != nil {
		t.Fatal(err)
	}
	if flag != ledger.Valid {
		t.Fatalf("committed flag %s", flag)
	}
	if len(tx.Payload.Batch) != 5 {
		t.Fatalf("payload carries %d batch calls", len(tx.Payload.Batch))
	}
}

// TestSubmitBatchFailingCallRejectsWhole checks all-or-nothing: one
// failing call aborts endorsement and nothing commits.
func TestSubmitBatchFailingCallRejectsWhole(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4, Cutter: ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond}})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	_, err := gw.SubmitBatch([]chaincode.BatchCall{
		{Chaincode: "kv", Fn: "put", Args: [][]byte{[]byte("a"), []byte("1")}},
		{Chaincode: "kv", Fn: "fail"},
	})
	if err == nil {
		t.Fatal("poisoned batch accepted")
	}
	raw, err := gw.Evaluate("kv", "get", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		t.Fatalf("failed batch leaked state: a=%q", raw)
	}
}

// TestSubmitBatchEventsDelivered checks each call's chaincode event is
// delivered to subscribers when the batch envelope commits.
func TestSubmitBatchEventsDelivered(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4, Cutter: ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond}})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	events := net.ChannelAt(0).Peer(0).SubscribeEvents(16)
	calls := []chaincode.BatchCall{
		{Chaincode: "kv", Fn: "put", Args: [][]byte{[]byte("k0"), []byte("v0")}},
		{Chaincode: "kv", Fn: "put", Args: [][]byte{[]byte("k1"), []byte("v1")}},
	}
	res, err := gw.SubmitBatch(calls)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		select {
		case e := <-events:
			if e.Name != "put" {
				t.Fatalf("event name %q", e.Name)
			}
			got[string(e.Payload)] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for event %d of batch %s", i, res.TxID)
		}
	}
	if !got["k0"] || !got["k1"] {
		t.Fatalf("events delivered for %v, want k0 and k1", got)
	}
}
