package peer

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/statedb"
)

// counterCC increments a named counter; used to exercise RWSets and MVCC.
type counterCC struct{}

func (counterCC) Name() string { return "counter" }

func (counterCC) Invoke(stub chaincode.Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "incr":
		key := string(args[0])
		raw, err := stub.GetState(key)
		if err != nil {
			return nil, err
		}
		n := 0
		if len(raw) > 0 {
			fmt.Sscanf(string(raw), "%d", &n)
		}
		n++
		out := []byte(fmt.Sprintf("%d", n))
		if err := stub.PutState(key, out); err != nil {
			return nil, err
		}
		if err := stub.SetEvent("incremented", []byte(key)); err != nil {
			return nil, err
		}
		return out, nil
	case "boom":
		return nil, errors.New("chaincode failure")
	default:
		return nil, fmt.Errorf("unknown fn %q", fn)
	}
}

func newTestPeer(t *testing.T) (*Peer, *msp.Signer) {
	t.Helper()
	signer, err := msp.NewSigner("org1", "peer0", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	reg := chaincode.NewRegistry()
	if err := reg.Register(counterCC{}); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		ID:        "peer0",
		ChannelID: "ch",
		Signer:    signer,
		Registry:  reg,
		Policy:    msp.AnyValid{},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	return p, client
}

func propose(t *testing.T, client *msp.Signer, fn string, args ...[]byte) *Proposal {
	t.Helper()
	prop, err := NewProposal(client, "ch", "counter", fn, args, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return prop
}

// envelope assembles a signed tx from an endorsement.
func envelope(t *testing.T, client *msp.Signer, prop *Proposal, resps ...*ProposalResponse) ledger.Transaction {
	t.Helper()
	tx := ledger.Transaction{
		ID:        prop.TxID,
		ChannelID: prop.ChannelID,
		Creator:   client.Identity,
		Payload:   ledger.TxPayload{Chaincode: prop.Chaincode, Fn: prop.Fn, Args: prop.Args},
		Response:  resps[0].Response,
		Events:    resps[0].Events,
		Timestamp: prop.Timestamp,
	}
	var err error
	if tx.RWSet, err = statedb.DecodeRWSet(resps[0].RWSet); err != nil {
		t.Fatal(err)
	}
	for _, r := range resps {
		tx.Endorsements = append(tx.Endorsements, r.Endorsement)
	}
	tx.Signature = client.Sign(tx.SigningBytes())
	return tx
}

func TestGenesisBlock(t *testing.T) {
	p, _ := newTestPeer(t)
	if p.Ledger().Height() != 1 {
		t.Fatalf("height = %d, want 1 (genesis)", p.Ledger().Height())
	}
	if err := p.Ledger().VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

func TestEndorseProducesVerifiableEndorsement(t *testing.T) {
	p, client := newTestPeer(t)
	resp, err := p.Endorse(propose(t, client, "incr", []byte("ctr")))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Response) != "1" {
		t.Fatalf("response %q", resp.Response)
	}
	if !resp.Endorsement.Verify() {
		t.Fatal("endorsement signature invalid")
	}
	if len(resp.Events) != 1 || resp.Events[0].Name != "incremented" {
		t.Fatalf("events = %+v", resp.Events)
	}
	// Simulation must not touch committed state.
	if _, ok := p.State().GetState("counter", "ctr"); ok {
		t.Fatal("endorsement wrote state")
	}
}

func TestEndorseRejectsBadProposalSignature(t *testing.T) {
	p, client := newTestPeer(t)
	prop := propose(t, client, "incr", []byte("ctr"))
	prop.Signature = []byte("junk")
	if _, err := p.Endorse(prop); err == nil {
		t.Fatal("bad proposal signature endorsed")
	}
}

func TestEndorseUnknownChaincode(t *testing.T) {
	p, client := newTestPeer(t)
	prop, err := NewProposal(client, "ch", "ghost", "fn", nil, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Endorse(prop); err == nil {
		t.Fatal("unknown chaincode endorsed")
	}
}

func TestEndorseChaincodeError(t *testing.T) {
	p, client := newTestPeer(t)
	if _, err := p.Endorse(propose(t, client, "boom")); err == nil {
		t.Fatal("chaincode error not propagated")
	}
}

func TestCommitAppliesValidTx(t *testing.T) {
	p, client := newTestPeer(t)
	prop := propose(t, client, "incr", []byte("ctr"))
	resp, err := p.Endorse(prop)
	if err != nil {
		t.Fatal(err)
	}
	tx := envelope(t, client, prop, resp)
	waiter := p.WaitForCommit(tx.ID)
	block, err := p.CommitBatch([]ledger.Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	if block.Metadata.Flags[0] != ledger.Valid {
		t.Fatalf("flag = %s", block.Metadata.Flags[0])
	}
	vv, ok := p.State().GetState("counter", "ctr")
	if !ok || string(vv.Value) != "1" {
		t.Fatalf("state = %v %q", ok, vv.Value)
	}
	select {
	case flag := <-waiter:
		if flag != ledger.Valid {
			t.Fatalf("waiter flag = %s", flag)
		}
	default:
		t.Fatal("commit waiter not notified")
	}
	// History recorded.
	hist := p.History().Get("counter", "ctr")
	if len(hist) != 1 || hist[0].TxID != tx.ID {
		t.Fatalf("history = %+v", hist)
	}
}

func TestCommitFlagsMVCCConflictWithinBlock(t *testing.T) {
	p, client := newTestPeer(t)
	prop1 := propose(t, client, "incr", []byte("ctr"))
	resp1, err := p.Endorse(prop1)
	if err != nil {
		t.Fatal(err)
	}
	prop2 := propose(t, client, "incr", []byte("ctr"))
	resp2, err := p.Endorse(prop2)
	if err != nil {
		t.Fatal(err)
	}
	block, err := p.CommitBatch([]ledger.Transaction{
		envelope(t, client, prop1, resp1),
		envelope(t, client, prop2, resp2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if block.Metadata.Flags[0] != ledger.Valid {
		t.Fatalf("first flag = %s", block.Metadata.Flags[0])
	}
	if block.Metadata.Flags[1] != ledger.MVCCConflict {
		t.Fatalf("second flag = %s", block.Metadata.Flags[1])
	}
	vv, _ := p.State().GetState("counter", "ctr")
	if string(vv.Value) != "1" {
		t.Fatalf("double increment applied: %q", vv.Value)
	}
}

func TestCommitFlagsStaleReadAcrossBlocks(t *testing.T) {
	p, client := newTestPeer(t)
	prop1 := propose(t, client, "incr", []byte("ctr"))
	resp1, _ := p.Endorse(prop1)
	staleProp := propose(t, client, "incr", []byte("ctr"))
	staleResp, _ := p.Endorse(staleProp) // endorsed against pre-commit state
	if _, err := p.CommitBatch([]ledger.Transaction{envelope(t, client, prop1, resp1)}); err != nil {
		t.Fatal(err)
	}
	block, err := p.CommitBatch([]ledger.Transaction{envelope(t, client, staleProp, staleResp)})
	if err != nil {
		t.Fatal(err)
	}
	if block.Metadata.Flags[0] != ledger.MVCCConflict {
		t.Fatalf("stale read flag = %s", block.Metadata.Flags[0])
	}
}

func TestCommitFlagsBadCreatorSignature(t *testing.T) {
	p, client := newTestPeer(t)
	prop := propose(t, client, "incr", []byte("x"))
	resp, _ := p.Endorse(prop)
	tx := envelope(t, client, prop, resp)
	tx.Signature = []byte("forged")
	block, err := p.CommitBatch([]ledger.Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	if block.Metadata.Flags[0] != ledger.BadCreatorSignature {
		t.Fatalf("flag = %s", block.Metadata.Flags[0])
	}
}

func TestCommitEndorsementPolicy(t *testing.T) {
	// Build a peer whose policy demands 2 endorsers; a single endorsement
	// must be flagged.
	signer, _ := msp.NewSigner("org1", "peerX", msp.RoleMember)
	reg := chaincode.NewRegistry()
	_ = reg.Register(counterCC{})
	p, err := New(Config{ID: "peerX", ChannelID: "ch", Signer: signer, Registry: reg,
		Policy: msp.QuorumPolicy{Threshold: 2, Total: 2}})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := msp.NewSigner("c", "c", msp.RoleMember)
	prop, _ := NewProposal(client, "ch", "counter", "incr", [][]byte{[]byte("k")}, time.Now())
	resp, err := p.Endorse(prop)
	if err != nil {
		t.Fatal(err)
	}
	tx := envelope(t, client, prop, resp)
	block, err := p.CommitBatch([]ledger.Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	if block.Metadata.Flags[0] != ledger.EndorsementPolicyFailure {
		t.Fatalf("flag = %s", block.Metadata.Flags[0])
	}
}

func TestEventsOnlyForValidTxs(t *testing.T) {
	p, client := newTestPeer(t)
	events := p.SubscribeEvents(8)
	prop := propose(t, client, "incr", []byte("ek"))
	resp, _ := p.Endorse(prop)
	tx := envelope(t, client, prop, resp)
	tx.Signature = []byte("broken") // will be invalidated
	if _, err := p.CommitBatch([]ledger.Transaction{tx}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-events:
		t.Fatalf("event %v delivered for invalid tx", e)
	default:
	}
	// Now a valid one.
	prop2 := propose(t, client, "incr", []byte("ek"))
	resp2, _ := p.Endorse(prop2)
	if _, err := p.CommitBatch([]ledger.Transaction{envelope(t, client, prop2, resp2)}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-events:
		if e.Name != "incremented" {
			t.Fatalf("event = %+v", e)
		}
	default:
		t.Fatal("no event for valid tx")
	}
}

func TestWatchdogFlagsAfterThreshold(t *testing.T) {
	wd := NewWatchdog(2)
	var flagged []string
	wd.OnFlag(func(id string) { flagged = append(flagged, id) })
	wd.Report("peer9", "bad digest")
	if wd.IsFlagged("peer9") {
		t.Fatal("flagged below threshold")
	}
	wd.Report("peer9", "bad digest again")
	if !wd.IsFlagged("peer9") {
		t.Fatal("not flagged at threshold")
	}
	if len(flagged) != 1 || flagged[0] != "peer9" {
		t.Fatalf("callbacks = %v", flagged)
	}
	// More reports do not re-fire the callback.
	wd.Report("peer9", "still bad")
	if len(flagged) != 1 {
		t.Fatal("callback re-fired")
	}
	if wd.Reports("peer9") != 3 {
		t.Fatalf("reports = %d", wd.Reports("peer9"))
	}
	if got := wd.Flagged(); len(got) != 1 || got[0] != "peer9" {
		t.Fatalf("Flagged() = %v", got)
	}
}

func TestCommitReportsMismatchedEndorser(t *testing.T) {
	p, client := newTestPeer(t)
	prop := propose(t, client, "incr", []byte("wk"))
	resp, _ := p.Endorse(prop)

	// A second "endorser" signs a different digest: valid signature, wrong
	// result — the watchdog must record it.
	liar, _ := msp.NewSigner("org2", "liar", msp.RoleMember)
	wrongDigest := []byte("some-other-result")
	lie := msp.Endorsement{Endorser: liar.Identity, Digest: wrongDigest, Signature: liar.Sign(wrongDigest)}

	tx := envelope(t, client, prop, resp)
	tx.Endorsements = append(tx.Endorsements, lie)
	if _, err := p.CommitBatch([]ledger.Transaction{tx}); err != nil {
		t.Fatal(err)
	}
	if p.Watchdog().Reports("org2/liar") != 1 {
		t.Fatalf("liar reports = %d", p.Watchdog().Reports("org2/liar"))
	}
}

func TestNilPolicyRejected(t *testing.T) {
	signer, _ := msp.NewSigner("o", "p", msp.RoleMember)
	if _, err := New(Config{ID: "p", Signer: signer, Registry: chaincode.NewRegistry()}); err == nil {
		t.Fatal("nil policy accepted")
	}
}
