package fabric

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/consensus"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/ordering"
)

// kvCC is a minimal chaincode for lifecycle tests.
type kvCC struct{}

func (kvCC) Name() string { return "kv" }

func (kvCC) Invoke(stub chaincode.Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "put":
		if len(args) != 2 {
			return nil, errors.New("put needs key and value")
		}
		if err := stub.PutState(string(args[0]), args[1]); err != nil {
			return nil, err
		}
		if err := stub.SetEvent("put", args[0]); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	case "get":
		if len(args) != 1 {
			return nil, errors.New("get needs key")
		}
		return stub.GetState(string(args[0]))
	case "increment":
		v, err := stub.GetState(string(args[0]))
		if err != nil {
			return nil, err
		}
		count := 0
		if len(v) > 0 {
			fmt.Sscanf(string(v), "%d", &count)
		}
		count++
		out := []byte(fmt.Sprintf("%d", count))
		return out, stub.PutState(string(args[0]), out)
	case "fail":
		return nil, errors.New("deliberate failure")
	default:
		return nil, fmt.Errorf("unknown fn %q", fn)
	}
}

func newTestNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	net := openTestNetwork(t, cfg)
	net.MustDeploy(kvCC{})
	net.Start()
	return net
}

// openTestNetwork builds a network, not started, that closes when the
// test ends.
func openTestNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	t.Cleanup(func() {
		if err := net.Close(); err != nil {
			t.Errorf("close network: %v", err)
		}
	})
	return net
}

func newClient(t *testing.T) *msp.Signer {
	t.Helper()
	s, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		t.Fatalf("client signer: %v", err)
	}
	return s
}

func TestSubmitAndEvaluateRoundTrip(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	gw := net.ChannelAt(0).Gateway(newClient(t))

	res, err := gw.Submit("kv", "put", []byte("k1"), []byte("v1"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Flag != ledger.Valid {
		t.Fatalf("flag = %s, want VALID", res.Flag)
	}
	got, err := gw.Evaluate("kv", "get", []byte("k1"))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if string(got) != "v1" {
		t.Fatalf("get = %q, want v1", got)
	}
}

func TestAllPeersConverge(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	const n = 15
	for i := 0; i < n; i++ {
		if _, err := gw.Submit("kv", "put", []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// All peers should reach the same height and identical tip hashes. No
	// submissions are in flight, so everyone converges on the current max.
	var h uint64
	for i := 0; i < 4; i++ {
		if ph := net.ChannelAt(0).Peer(i).Ledger().Height(); ph > h {
			h = ph
		}
	}
	if !net.ChannelAt(0).WaitHeight(h, 5*time.Second) {
		t.Fatal("peers did not converge on height")
	}
	tip := net.ChannelAt(0).Peer(0).Ledger().TipHash()
	for i := 1; i < 4; i++ {
		if net.ChannelAt(0).Peer(i).Ledger().Height() != h {
			t.Fatalf("peer %d height %d != %d", i, net.ChannelAt(0).Peer(i).Ledger().Height(), h)
		}
		if net.ChannelAt(0).Peer(i).Ledger().TipHash() != tip {
			t.Fatalf("peer %d tip hash diverges", i)
		}
		if err := net.ChannelAt(0).Peer(i).Ledger().VerifyChain(); err != nil {
			t.Fatalf("peer %d chain: %v", i, err)
		}
	}
	// World states agree too.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", i)
		for pi := 0; pi < 4; pi++ {
			vv, ok := net.ChannelAt(0).Peer(pi).State().GetState("kv", key)
			if !ok || string(vv.Value) != "v" {
				t.Fatalf("peer %d missing %s", pi, key)
			}
		}
	}
}

func TestChaincodeErrorDoesNotCommit(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	_, err := gw.Submit("kv", "fail")
	if err == nil {
		t.Fatal("expected endorsement failure")
	}
	if net.ChannelAt(0).Peer(0).Ledger().Stats().TotalTxs != 0 {
		t.Fatal("failed proposal must not be ordered")
	}
}

func TestMVCCConflictFlagged(t *testing.T) {
	net := newTestNetwork(t, Config{
		NumPeers: 4,
		Cutter:   ordering.CutterConfig{MaxMessages: 2, BatchTimeout: 200 * time.Millisecond},
	})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	// Seed the counter.
	if _, err := gw.Submit("kv", "put", []byte("ctr"), []byte("0")); err != nil {
		t.Fatalf("seed: %v", err)
	}
	// Two concurrent increments read the same version — both are endorsed
	// at or above the seed's block — and, batched together, the second
	// must be invalidated with an MVCC conflict.
	id1, w1, err := gw.SubmitAsync("kv", "increment", []byte("ctr"))
	if err != nil {
		t.Fatalf("async1: %v", err)
	}
	id2, w2, err := gw.SubmitAsync("kv", "increment", []byte("ctr"))
	if err != nil {
		t.Fatalf("async2: %v", err)
	}
	if id1 == id2 {
		t.Fatal("duplicate tx ids")
	}
	f1 := <-w1
	f2 := <-w2
	valid, conflict := 0, 0
	for _, f := range []ledger.ValidationCode{f1, f2} {
		switch f {
		case ledger.Valid:
			valid++
		case ledger.MVCCConflict:
			conflict++
		}
	}
	if valid != 1 || conflict != 1 {
		t.Fatalf("flags = %s,%s; want one VALID one MVCC_READ_CONFLICT", f1, f2)
	}
	// Counter must have been incremented exactly once.
	got, err := gw.Evaluate("kv", "get", []byte("ctr"))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if string(got) != "1" {
		t.Fatalf("ctr = %s, want 1", got)
	}
}

func TestEndorsementPolicyFailureFlagged(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	gw := net.ChannelAt(0).Gateway(newClient(t))

	// Build a valid envelope, then strip endorsements below the 2/3 quorum.
	prop := mustProposal(t, gw, "kv", "put", [][]byte{[]byte("x"), []byte("y")})
	resp, err := net.ChannelAt(0).Peer(0).Endorse(prop)
	if err != nil {
		t.Fatalf("endorse: %v", err)
	}
	tx := envelopeFrom(t, gw, prop, resp)
	res, err := gw.SubmitEnvelope(tx)
	if err != nil {
		t.Fatalf("submit envelope: %v", err)
	}
	if res.Flag != ledger.EndorsementPolicyFailure {
		t.Fatalf("flag = %s, want ENDORSEMENT_POLICY_FAILURE", res.Flag)
	}
	if _, ok := net.ChannelAt(0).Peer(0).State().GetState("kv", "x"); ok {
		t.Fatal("under-endorsed write must not be applied")
	}
}

// TestNestedBatchEnvelopeRefused: an envelope the encoding cannot carry
// whole never reaches ordering, so nothing commits under a hash that
// leaves part of it out.
func TestNestedBatchEnvelopeRefused(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	prop := mustProposal(t, gw, "kv", "put", [][]byte{[]byte("x"), []byte("y")})
	resp, err := net.ChannelAt(0).Peer(0).Endorse(prop)
	if err != nil {
		t.Fatal(err)
	}
	tx := envelopeFrom(t, gw, prop, resp)
	tx.Payload = ledger.TxPayload{Batch: []ledger.TxPayload{{Batch: []ledger.TxPayload{tx.Payload}}}}
	height := net.ChannelAt(0).Peer(0).Height()
	if _, err := gw.SubmitEnvelope(tx); err == nil || !strings.Contains(err.Error(), "batch of its own") {
		t.Fatalf("submit of a nested batch: %v", err)
	}
	if got := net.ChannelAt(0).Peer(0).Height(); got != height {
		t.Fatalf("height %d → %d after the refusal", height, got)
	}
}

func TestBadCreatorSignatureFlagged(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	prop := mustProposal(t, gw, "kv", "put", [][]byte{[]byte("x"), []byte("y")})
	var endorsements []*ledger.Transaction
	_ = endorsements
	resp0, err := net.ChannelAt(0).Peer(0).Endorse(prop)
	if err != nil {
		t.Fatal(err)
	}
	tx := envelopeFrom(t, gw, prop, resp0)
	tx.Signature = []byte("garbage")
	res, err := gw.SubmitEnvelope(tx)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Flag != ledger.BadCreatorSignature {
		t.Fatalf("flag = %s, want BAD_CREATOR_SIGNATURE", res.Flag)
	}
}

func TestSubmitWithSilentValidator(t *testing.T) {
	net := newTestNetwork(t, Config{
		NumPeers:         4,
		Behaviors:        map[int]consensus.Behavior{2: consensus.Silent{}},
		ConsensusTimeout: 500 * time.Millisecond,
	})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	res, err := gw.Submit("kv", "put", []byte("a"), []byte("b"))
	if err != nil {
		t.Fatalf("submit with silent validator: %v", err)
	}
	if res.Flag != ledger.Valid {
		t.Fatalf("flag = %s", res.Flag)
	}
}

func TestEventsDelivered(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	events := net.ChannelAt(0).Peer(1).SubscribeEvents(16)
	if _, err := gw.Submit("kv", "put", []byte("ek"), []byte("ev")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case e := <-events:
		if e.Name != "put" || string(e.Payload) != "ek" {
			t.Fatalf("event = %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event delivered")
	}
}

// --- helpers ---

func mustProposal(t *testing.T, gw *Gateway, cc, fn string, args [][]byte) *proposalT {
	t.Helper()
	p, err := newRawProposal(gw, cc, fn, args)
	if err != nil {
		t.Fatalf("proposal: %v", err)
	}
	return p
}

// TestSignaturesPerSerialRecord counts the endorsement sites per serially
// stored record on four peers: every peer simulates the proposal and signs
// one endorsement (signatures_made_total{component="peer"}), and the
// gateway checks each of the four (signature_verifications_total
// {component="gateway"}), the ones answering after the quorum included.
func TestSignaturesPerSerialRecord(t *testing.T) {
	reg := obs.NewRegistry()
	net := newTestNetwork(t, Config{NumPeers: 4, Obs: reg})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	sum := func(name, component string) int {
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, name+"{") && strings.Contains(line, `component="`+component+`"`) {
				v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
				if err != nil {
					t.Fatalf("bad sample %q: %v", line, err)
				}
				total += v
			}
		}
		return total
	}
	settled := func(name, component string, want int) int {
		deadline := time.Now().Add(5 * time.Second)
		for sum(name, component) < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // let an over-count show
		return sum(name, component)
	}
	signs0, checks0 := sum("signatures_made_total", "peer"), sum("signature_verifications_total", "gateway")
	const records = 5
	for i := 0; i < records; i++ {
		res, err := gw.Submit("kv", "put", []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err != nil || res.Flag != ledger.Valid {
			t.Fatalf("submit %d: %v %v", i, err, res)
		}
	}
	const perRecord = 4
	if got := settled("signatures_made_total", "peer", signs0+perRecord*records) - signs0; got != perRecord*records {
		t.Errorf("peers signed %d endorsements for %d records, want %d", got, records, perRecord*records)
	}
	if got := settled("signature_verifications_total", "gateway", checks0+perRecord*records) - checks0; got != perRecord*records {
		t.Errorf("the gateway checked %d endorsements for %d records, want %d", got, records, perRecord*records)
	}
}
