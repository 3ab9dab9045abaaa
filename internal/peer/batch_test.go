package peer

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
)

func batchPropose(t *testing.T, client *msp.Signer, calls ...chaincode.BatchCall) *Proposal {
	t.Helper()
	bp := &Proposal{ChannelID: "ch", Batch: calls, Timestamp: time.Now()}
	if _, err := bp.Sign(client); err != nil {
		t.Fatal(err)
	}
	return bp
}

// TestEndorseBatchMergedRWSetCommits endorses three incr calls on one key
// as a single batch envelope and commits it: the merged read/write set
// must land the final counter value in one valid transaction.
func TestEndorseBatchMergedRWSetCommits(t *testing.T) {
	p, client := newTestPeer(t)
	bp := batchPropose(t, client,
		chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("k")}},
		chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("k")}},
		chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("k")}},
	)
	resp, err := p.Endorse(bp)
	if err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	var responses [][]byte
	if err := json.Unmarshal(resp.Response, &responses); err != nil {
		t.Fatalf("decode batch responses: %v", err)
	}
	if len(responses) != 3 || string(responses[2]) != "3" {
		t.Fatalf("responses = %q", responses)
	}
	block, err := p.CommitBatch([]ledger.Transaction{envelope(t, client, bp, resp)})
	if err != nil {
		t.Fatal(err)
	}
	if block.Metadata.Flags[0] != ledger.Valid {
		t.Fatalf("batch tx flagged %s", block.Metadata.Flags[0])
	}
	vv, ok := p.State().GetState("counter", "k")
	if !ok || string(vv.Value) != "3" {
		t.Fatalf("counter = %q ok=%v, want 3", vv.Value, ok)
	}
}

// TestEndorseBatchRejectsBadSignature checks tampered batch proposals are
// refused.
func TestEndorseBatchRejectsBadSignature(t *testing.T) {
	p, client := newTestPeer(t)
	bp := batchPropose(t, client, chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("k")}})
	bp.Batch = append(bp.Batch, chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("other")}})
	if _, err := p.Endorse(bp); err == nil {
		t.Fatal("tampered batch proposal endorsed")
	}
}

// TestEndorseBatchFailingCallAborts checks a failing call rejects the
// whole endorsement.
func TestEndorseBatchFailingCallAborts(t *testing.T) {
	p, client := newTestPeer(t)
	bp := batchPropose(t, client,
		chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("k")}},
		chaincode.BatchCall{Chaincode: "counter", Fn: "boom"},
	)
	if _, err := p.Endorse(bp); err == nil {
		t.Fatal("poisoned batch endorsed")
	}
	if _, ok := p.State().GetState("counter", "k"); ok {
		t.Fatal("failed endorsement leaked state")
	}
}

// TestCommitBatchParallelValidation commits a wide block (forcing the
// batch verifier's fan-out under raised GOMAXPROCS) mixing valid
// transactions, a bad creator signature and an intra-block MVCC conflict,
// and checks flags and final state match the serial rules.
func TestCommitBatchParallelValidation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p, client := newTestPeer(t)
	var txs []ledger.Transaction
	// 8 independent counters: all valid.
	for i := 0; i < 8; i++ {
		prop := propose(t, client, "incr", []byte(fmt.Sprintf("k%d", i)))
		resp, err := p.Endorse(prop)
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, envelope(t, client, prop, resp))
	}
	// Tampered signature.
	badProp := propose(t, client, "incr", []byte("bad"))
	badResp, err := p.Endorse(badProp)
	if err != nil {
		t.Fatal(err)
	}
	badTx := envelope(t, client, badProp, badResp)
	badTx.Signature = []byte("garbage")
	txs = append(txs, badTx)
	// Two txs reading/writing the same key: the second must flag MVCC.
	c1 := propose(t, client, "incr", []byte("shared"))
	r1, err := p.Endorse(c1)
	if err != nil {
		t.Fatal(err)
	}
	c2 := propose(t, client, "incr", []byte("shared"))
	r2, err := p.Endorse(c2)
	if err != nil {
		t.Fatal(err)
	}
	txs = append(txs, envelope(t, client, c1, r1), envelope(t, client, c2, r2))

	block, err := p.CommitBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if block.Metadata.Flags[i] != ledger.Valid {
			t.Fatalf("tx %d flagged %s", i, block.Metadata.Flags[i])
		}
	}
	if block.Metadata.Flags[8] != ledger.BadCreatorSignature {
		t.Fatalf("tampered tx flagged %s", block.Metadata.Flags[8])
	}
	if block.Metadata.Flags[9] != ledger.Valid || block.Metadata.Flags[10] != ledger.MVCCConflict {
		t.Fatalf("conflict pair flagged %s / %s", block.Metadata.Flags[9], block.Metadata.Flags[10])
	}
	vv, ok := p.State().GetState("counter", "shared")
	if !ok || string(vv.Value) != "1" {
		t.Fatalf("shared counter = %q, want 1", vv.Value)
	}
	if _, ok := p.State().GetState("counter", "bad"); ok {
		t.Fatal("invalid tx wrote state")
	}
}

// TestBlockSignaturesCheckedOnceEach: a block's creator signatures and
// endorsements are checked in one batch. A forged creator signature and a
// forged endorsement flag exactly their own transactions, the rest commit,
// and every distinct signature in the block runs ed25519 exactly once — an
// endorsement carried twice by one envelope is checked once.
func TestBlockSignaturesCheckedOnceEach(t *testing.T) {
	p, client := newTestPeer(t)
	var txs []ledger.Transaction
	for i := 0; i < 4; i++ {
		prop := propose(t, client, "incr", []byte(fmt.Sprintf("once-%d", i)))
		resp, err := p.Endorse(prop)
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, envelope(t, client, prop, resp))
	}
	txs[1].Signature[0] ^= 0x01
	forged := &txs[2].Endorsements[0]
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 0x01
	txs[2].Signature = client.Sign(txs[2].SigningBytes())
	txs[3].Endorsements = append(txs[3].Endorsements, txs[3].Endorsements[0])
	txs[3].Signature = client.Sign(txs[3].SigningBytes())

	skipped, verified := p.VerifyCacheStats()
	block, err := p.CommitBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	want := []ledger.ValidationCode{ledger.Valid, ledger.BadCreatorSignature, ledger.EndorsementPolicyFailure, ledger.Valid}
	if got := block.Metadata.Flags; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flags %v, want %v", got, want)
	}
	s, v := p.VerifyCacheStats()
	// 4 creator signatures + 5 endorsements, one of them a repeat.
	if v-verified != 8 || s-skipped != 1 {
		t.Fatalf("block ran ed25519 %d times and skipped %d checks; want 8 and 1", v-verified, s-skipped)
	}
}
