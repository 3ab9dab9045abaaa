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
// It also sets and deletes keys outright.
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
	case "set":
		return nil, stub.PutState(string(args[0]), args[1])
	case "del":
		return nil, stub.DelState(string(args[0]))
	case "boom":
		return nil, errors.New("chaincode failure")
	default:
		return nil, fmt.Errorf("unknown fn %q", fn)
	}
}

// testSigner derives a test peer's key from its name, so a reopened peer
// keeps its key and twin peers can name each other.
func testSigner(id string) *msp.Signer {
	return msp.NewSignerFromSeed("peer-test", "org1", id, msp.RoleMember)
}

// testMembers is the channel membership every test peer is built with:
// all the names these tests give a peer.
var testMembers = func() *msp.Registry {
	var all []msp.Identity
	for _, id := range []string{"peer0", "peerA", "peerB", "peerX"} {
		all = append(all, testSigner(id).Identity)
	}
	r, err := msp.NewRegistry(all...)
	if err != nil {
		panic(err)
	}
	return r
}()

// anyOne is the policy most tests run under: one valid endorsement by a
// member counts.
var anyOne = msp.QuorumPolicy{Threshold: 1, Total: 4}

func newTestPeer(t *testing.T) (*Peer, *msp.Signer) {
	t.Helper()
	return newTestPeerWith(t, anyOne)
}

func newTestPeerWith(t *testing.T, policy msp.QuorumPolicy) (*Peer, *msp.Signer) {
	t.Helper()
	signer := testSigner("peer0")
	reg := chaincode.NewRegistry()
	if err := reg.Register(counterCC{}); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		ID:         "peer0",
		ChannelID:  "ch",
		Signer:     signer,
		Registry:   reg,
		Policy:     policy,
		Identities: testMembers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	client, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	return p, client
}

func propose(t testing.TB, client *msp.Signer, fn string, args ...[]byte) *Proposal {
	t.Helper()
	prop, err := NewProposal(client, "ch", "counter", fn, args, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return prop
}

// envelope assembles a signed tx from an endorsement.
func envelope(t testing.TB, client *msp.Signer, prop *Proposal, resps ...*ProposalResponse) ledger.Transaction {
	t.Helper()
	tx := ledger.Transaction{
		ID:        prop.TxID,
		ChannelID: prop.ChannelID,
		Creator:   client.Identity,
		Payload:   prop.Payload(),
		Response:  resps[0].Response,
		Events:    resps[0].Events,
		Timestamp: prop.Timestamp,
	}
	var err error
	if tx.RWSet, err = statedb.DecodeRWSet(resps[0].RWSet); err != nil {
		t.Fatal(err)
	}
	for _, r := range resps {
		tx.Endorsements = append(tx.Endorsements, r.Endorsement.Ref())
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
	// The write's version names the transaction the chain holds.
	if vv.Version != (statedb.Version{BlockNum: 1}) {
		t.Fatalf("state version = %+v", vv.Version)
	}
	if got, flag, n, err := p.Ledger().GetTx(tx.ID); err != nil || got.ID != tx.ID || flag != ledger.Valid || n != 1 {
		t.Fatalf("GetTx = %v, %s, %d, %v", got, flag, n, err)
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
	reg := chaincode.NewRegistry()
	_ = reg.Register(counterCC{})
	p, err := New(Config{ID: "peerX", ChannelID: "ch", Signer: testSigner("peerX"), Registry: reg,
		Policy: msp.QuorumPolicy{Threshold: 2, Total: 2}, Identities: testMembers})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
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

// TestForgedEndorsersRejected: the endorsement policy counts channel
// members, resolved by key fingerprint, and nothing else. Three freshly
// generated keys that call themselves org1/peer0, org1/peerA and
// org1/peerB sign the true digest with valid signatures; so does one real
// member, three times over; so does an outsider under a real member's
// fingerprint. None reaches a 3-of-4 quorum — three real members do.
func TestForgedEndorsersRejected(t *testing.T) {
	p, client := newTestPeerWith(t, msp.TwoThirds(4))
	sign := func(digest []byte, signers ...*msp.Signer) (out []msp.EndorsementRef) {
		for _, s := range signers {
			out = append(out, msp.Endorsement{Endorser: s.Identity, Signature: s.Sign(digest)}.Ref())
		}
		return out
	}
	outsider := func(name string) *msp.Signer {
		s, err := msp.NewSigner("org1", name, msp.RoleMember)
		if err != nil {
			t.Fatal(err)
		}
		if s.Identity.ID() != testSigner(name).Identity.ID() {
			t.Fatal("the outsider is not named like the member")
		}
		return s
	}
	real := testSigner("peerA")
	cases := []struct {
		name    string
		endorse func(digest []byte) []msp.EndorsementRef
		want    ledger.ValidationCode
	}{
		{"three outsiders named like members", func(d []byte) []msp.EndorsementRef {
			return sign(d, outsider("peer0"), outsider("peerA"), outsider("peerB"))
		}, ledger.EndorsementPolicyFailure},
		{"one member three times", func(d []byte) []msp.EndorsementRef {
			return sign(d, real, real, real)
		}, ledger.EndorsementPolicyFailure},
		{"members' fingerprints over an outsider's signatures", func(d []byte) []msp.EndorsementRef {
			forger := outsider("peerX")
			var out []msp.EndorsementRef
			for _, id := range []string{"peer0", "peerA", "peerB"} {
				out = append(out, msp.EndorsementRef{Signer: testSigner(id).Identity.Fingerprint(), Signature: forger.Sign(d)})
			}
			return out
		}, ledger.EndorsementPolicyFailure},
		{"three members", func(d []byte) []msp.EndorsementRef {
			return sign(d, testSigner("peer0"), real, testSigner("peerB"))
		}, ledger.Valid},
	}
	for i, c := range cases {
		prop := propose(t, client, "incr", []byte(fmt.Sprintf("forged-%d", i)))
		resp, err := p.Endorse(prop)
		if err != nil {
			t.Fatal(err)
		}
		tx := envelope(t, client, prop, resp)
		tx.Endorsements = c.endorse(tx.Digest())
		tx.Signature = client.Sign(tx.SigningBytes())
		block, err := p.CommitBatch([]ledger.Transaction{tx})
		if err != nil {
			t.Fatal(err)
		}
		if got := block.Metadata.Flags[0]; got != c.want {
			t.Errorf("%s: flag = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRecordedInvocationIsSigned: the client's signature covers the
// chaincode, function and argument hashes the envelope records — its own
// call and every batched one — so whoever orders the envelope cannot
// rewrite what the chain says was invoked.
func TestRecordedInvocationIsSigned(t *testing.T) {
	p, client := newTestPeer(t)
	single := func() ledger.Transaction {
		prop := propose(t, client, "incr", []byte("signed"))
		resp, err := p.Endorse(prop)
		if err != nil {
			t.Fatal(err)
		}
		return envelope(t, client, prop, resp)
	}
	batched := func() ledger.Transaction {
		bp := batchPropose(t, client,
			chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("b1")}},
			chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("b2")}})
		resp, err := p.Endorse(bp)
		if err != nil {
			t.Fatal(err)
		}
		return envelope(t, client, bp, resp)
	}
	cases := []struct {
		name   string
		build  func() ledger.Transaction
		tamper func(tx *ledger.Transaction)
		want   ledger.ValidationCode
	}{
		{"untouched", single, func(*ledger.Transaction) {}, ledger.Valid},
		{"one byte of an argument hash", single, func(tx *ledger.Transaction) { tx.Payload.ArgHashes[0][7] ^= 1 }, ledger.BadCreatorSignature},
		{"the function", single, func(tx *ledger.Transaction) { tx.Payload.Fn = "boom" }, ledger.BadCreatorSignature},
		{"the chaincode", single, func(tx *ledger.Transaction) { tx.Payload.Chaincode = "other" }, ledger.BadCreatorSignature},
		{"an argument hash dropped", single, func(tx *ledger.Transaction) { tx.Payload.ArgHashes = nil }, ledger.BadCreatorSignature},
		{"batch untouched", batched, func(*ledger.Transaction) {}, ledger.Valid},
		{"a batched call's argument hash", batched, func(tx *ledger.Transaction) { tx.Payload.Batch[1].ArgHashes[0][0] ^= 0x80 }, ledger.BadCreatorSignature},
		{"a batched call's function", batched, func(tx *ledger.Transaction) { tx.Payload.Batch[0].Fn = "boom" }, ledger.BadCreatorSignature},
		{"a batched call dropped", batched, func(tx *ledger.Transaction) { tx.Payload.Batch = tx.Payload.Batch[:1] }, ledger.BadCreatorSignature},
	}
	for _, c := range cases {
		tx := c.build()
		c.tamper(&tx)
		block, err := p.CommitBatch([]ledger.Transaction{tx})
		if err != nil {
			t.Fatal(err)
		}
		if got := block.Metadata.Flags[0]; got != c.want {
			t.Errorf("%s rewritten after signing: flag = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestNilPolicyRejected: a peer configured with no policy, the zero
// QuorumPolicy, would count no endorsement, so it is refused.
func TestNilPolicyRejected(t *testing.T) {
	signer, _ := msp.NewSigner("o", "p", msp.RoleMember)
	if _, err := New(Config{ID: "p", Signer: signer, Registry: chaincode.NewRegistry()}); err == nil {
		t.Fatal("zero policy accepted")
	}
}
