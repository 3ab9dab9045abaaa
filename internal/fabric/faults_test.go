package fabric

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"socialchain/internal/consensus"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
	"socialchain/internal/peer"
	"socialchain/internal/sim"
)

func TestCommitTimeoutWhenOrderingStopped(t *testing.T) {
	net := openTestNetwork(t, Config{
		NumPeers:      4,
		CommitTimeout: 200 * time.Millisecond,
	})
	net.MustDeploy(kvCC{})
	net.Start()
	gw := net.ChannelAt(0).Gateway(newClient(t))

	// Endorse while running, then stop the network before ordering.
	tx, err := gw.endorseAndAssemble(&peer.Proposal{Chaincode: "kv", Fn: "put", Args: [][]byte{[]byte("k"), []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	net.Stop()
	// Re-start only the peers' endorsement side is gone; submit the
	// envelope into a stopped ordering pipeline: the waiter must time out.
	net2 := openTestNetwork(t, Config{NumPeers: 4, CommitTimeout: 200 * time.Millisecond})
	net2.MustDeploy(kvCC{})
	// net2 is never started: orderers are idle, commits can never happen.
	gw2 := net2.ChannelAt(0).Gateway(newClient(t))
	if _, err := gw2.SubmitEnvelope(*tx); !errors.Is(err, ErrCommitTimeout) {
		t.Fatalf("want ErrCommitTimeout, got %v", err)
	}
}

func TestSubmitUnderLatencyModel(t *testing.T) {
	rng := sim.NewRNG(17)
	net := newTestNetwork(t, Config{
		NumPeers: 4,
		Latency:  sim.LANLatency(rng),
		Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 5 * time.Millisecond},
	})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	start := time.Now()
	res, err := gw.Submit("kv", "put", []byte("lk"), []byte("lv"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Flag != ledger.Valid {
		t.Fatalf("flag = %s", res.Flag)
	}
	// The LAN model must add measurable delay (hundreds of messages at
	// 50-300 µs each) but stay well under a second.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("latency model blew up: %v", elapsed)
	}
}

func TestWrongDigestValidatorDoesNotAffectCommits(t *testing.T) {
	net := newTestNetwork(t, Config{
		NumPeers:         4,
		Behaviors:        map[int]consensus.Behavior{3: consensus.WrongDigest{}},
		ConsensusTimeout: 500 * time.Millisecond,
	})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	for i := 0; i < 3; i++ {
		res, err := gw.Submit("kv", "put", []byte{byte('a' + i)}, []byte("v"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if res.Flag != ledger.Valid {
			t.Fatalf("submit %d flag = %s", i, res.Flag)
		}
	}
}

// TestSubmitAvoidsEvictedEntryPeer: once the replicas evict an
// equivocating leader, no submission enters through its node. Honest
// replicas drop everything that node's validator gossips, so a transaction
// handed to it would never be ordered; the gateway's round robin used to
// reach it once every four submissions.
func TestSubmitAvoidsEvictedEntryPeer(t *testing.T) {
	net := newTestNetwork(t, Config{
		NumPeers:         4,
		Behaviors:        map[int]consensus.Behavior{0: &consensus.Equivocator{Half: map[string]bool{"peer1": true}}},
		ConsensusTimeout: 500 * time.Millisecond,
		CommitTimeout:    5 * time.Second,
	})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	for i := 0; i < 8; i++ {
		res, err := gw.Submit("kv", "put", []byte{byte('a' + i)}, []byte("v"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if res.Flag != ledger.Valid {
			t.Fatalf("submit %d flag = %s", i, res.Flag)
		}
	}
	// The run is only a test of the rule if some replica convicted peer0.
	for i := 1; i < 4; i++ {
		if ev := net.ChannelAt(0).Validator(i).EvictedPeers(); len(ev) == 1 && ev[0] == "peer0" {
			return
		}
	}
	t.Fatal("no replica evicted the equivocating peer0")
}

// TestEvaluatePrefersFreshestPeer: a read right after a store sees the
// store's write, even through the peers that commit it after the client's
// receipt: the read is served at or above the client's height.
func TestEvaluatePrefersFreshestPeer(t *testing.T) {
	net := newLaggingNetwork(t)
	gw := net.ChannelAt(0).Gateway(newClient(t))
	if _, err := gw.Submit("kv", "put", []byte("fresh"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	// The round robin reaches every peer, the lagging three included.
	for i := 0; i < 5; i++ {
		got, err := gw.Evaluate("kv", "get", []byte("fresh"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "1" {
			t.Fatalf("stale read: %q", got)
		}
	}
}

// TestForgedEndorsersRejected: an envelope whose result is signed — validly
// — by three freshly generated keys named like the channel's peers is
// refused by the gateway's policy pre-check and, ordered anyway, is flagged
// ENDORSEMENT_POLICY_FAILURE by every validator and writes nothing. Before
// endorsers were resolved against the channel's membership it committed as
// VALID: the policy counted whoever the envelope said had signed.
func TestForgedEndorsersRejected(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4, Cutter: ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 5 * time.Millisecond}})
	gw := net.ChannelAt(0).Gateway(newClient(t))
	prop, err := newRawProposal(gw, "kv", "put", [][]byte{[]byte("forged"), []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := net.ChannelAt(0).Peer(0).Endorse(prop)
	if err != nil {
		t.Fatal(err)
	}
	tx := envelopeFrom(t, gw, prop, resp)
	tx.Endorsements = nil
	for i := 0; i < 3; i++ {
		real := net.ChannelAt(0).Peer(i).Identity()
		forger, err := msp.NewSigner(real.Org, real.Name, real.Role)
		if err != nil {
			t.Fatal(err)
		}
		tx.Endorsements = append(tx.Endorsements, msp.Endorsement{Endorser: forger.Identity, Signature: forger.Sign(tx.Digest())}.Ref())
	}
	tx.Signature = gw.client.Sign(tx.SigningBytes())

	if err := gw.checkPolicy(&tx, nil); err == nil {
		t.Fatal("the gateway's policy pre-check accepted three outsiders")
	}
	res, err := gw.SubmitEnvelope(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flag != ledger.EndorsementPolicyFailure {
		t.Fatalf("flag = %s, want %s", res.Flag, ledger.EndorsementPolicyFailure)
	}
	if !net.ChannelAt(0).WaitHeight(res.BlockNum+1, 5*time.Second) {
		t.Fatal("peers did not converge")
	}
	for i, p := range net.ChannelAt(0).Peers() {
		if _, flag, _, err := p.Ledger().GetTx(tx.ID); err != nil || flag != ledger.EndorsementPolicyFailure {
			t.Errorf("peer %d recorded %s (%v)", i, flag, err)
		}
		if _, ok := p.State().GetState("kv", "forged"); ok {
			t.Errorf("peer %d applied the forged envelope's write", i)
		}
	}
}

// contradictingBackend is a channel one of whose endorsers returns honest
// results but signs some other digest — a valid signature, over a result
// it did not return.
type contradictingBackend struct {
	*Channel
	liar   string
	signer *msp.Signer
}

func (b contradictingBackend) activeEndorsers() []Endorser {
	out := b.Channel.activeEndorsers()
	for i, e := range out {
		if e.ID() == b.liar {
			out[i] = contradictingEndorser{e, b.signer}
		}
	}
	return out
}

type contradictingEndorser struct {
	Endorser
	signer *msp.Signer
}

func (e contradictingEndorser) Endorse(prop *peer.Proposal) (*peer.ProposalResponse, error) {
	resp, err := e.Endorser.Endorse(prop)
	if err == nil {
		resp.Endorsement.Digest = []byte("i-saw-something-else")
		resp.Endorsement.Signature = e.signer.Sign(resp.Endorsement.Digest)
	}
	return resp, err
}

// TestGatewayReportsContradictingEndorser: the gateway is where an
// endorser's signed digest and the result it returned meet, so it is the
// gateway that reports one signing a digest that is not its result's. The
// response is left out of the envelope (the other three still make
// quorum), and at the threshold the channel stops asking that peer.
func TestGatewayReportsContradictingEndorser(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4, WatchdogThreshold: 3})
	ch := net.ChannelAt(0)
	liar := ch.Peer(2).ID()
	// The liar's report is filed by its own endorsement goroutine, which
	// may answer after the store has returned on the other three.
	flagged := make(chan string, 1)
	ch.Watchdog().OnFlag(func(id string) { flagged <- id })
	gw := newGateway(contradictingBackend{ch, liar, net.signers[2]}, ch, newClient(t))
	for i := 0; i < 3; i++ {
		if ch.Watchdog().IsFlagged(liar) {
			t.Fatalf("flagged after %d reports", i)
		}
		res, err := gw.Submit("kv", "put", []byte(fmt.Sprintf("w%d", i)), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Flag != ledger.Valid {
			t.Fatalf("tx %d flag = %s", i, res.Flag)
		}
		if !ch.WaitHeight(res.BlockNum+1, 5*time.Second) {
			t.Fatal("peers did not converge")
		}
		tx, _, _, err := ch.Peer(0).Ledger().GetTx(res.TxID)
		if err != nil {
			t.Fatal(err)
		}
		if len(tx.Endorsements) != 3 {
			t.Fatalf("tx %d carries %d endorsements, want the three consistent ones", i, len(tx.Endorsements))
		}
	}
	select {
	case id := <-flagged:
		if id != liar {
			t.Fatalf("flagged %s, want %s", id, liar)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s was not flagged after three stores", liar)
	}
	if !ch.Watchdog().IsFlagged(liar) || ch.Watchdog().Reports(liar) != 3 {
		t.Fatalf("%s has %d reports, flagged %v", liar, ch.Watchdog().Reports(liar), ch.Watchdog().IsFlagged(liar))
	}
	for _, e := range ch.activeEndorsers() {
		if e.ID() == liar {
			t.Fatal("the flagged endorser is still asked")
		}
	}
}

// forgingEndorser returns its peer's honest result under an endorsement
// forge rewrites, and then tells answered. A waitingEndorser starts each
// endorsement only after that, so the forged response reaches the gateway
// before the last honest one does.
type forgingEndorser struct {
	Endorser
	forge    func(*msp.Endorsement)
	answered chan struct{}
}

func (e forgingEndorser) Endorse(prop *peer.Proposal) (*peer.ProposalResponse, error) {
	defer func() { e.answered <- struct{}{} }()
	resp, err := e.Endorser.Endorse(prop)
	if err == nil {
		e.forge(&resp.Endorsement)
	}
	return resp, err
}

type waitingEndorser struct {
	Endorser
	answered chan struct{}
}

func (e waitingEndorser) Endorse(prop *peer.Proposal) (*peer.ProposalResponse, error) {
	<-e.answered
	return e.Endorser.Endorse(prop)
}

// TestQuorumCountsOnlyMembersSignatures: an endorser that answers first
// with the right digest under a signature a validator will not count — one
// that does not verify, another member's, or a stranger's — does not
// complete a group. The three honest endorsements still make quorum, and
// every store commits.
func TestQuorumCountsOnlyMembersSignatures(t *testing.T) {
	stranger, err := msp.NewSigner("elsewhere", "mallory", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	forgeries := map[string]func(*Network) func(*msp.Endorsement){
		"bad signature": func(*Network) func(*msp.Endorsement) {
			return func(e *msp.Endorsement) {
				e.Signature = append([]byte(nil), e.Signature...)
				e.Signature[0] ^= 0xff
			}
		},
		"another member's signature": func(net *Network) func(*msp.Endorsement) {
			return func(e *msp.Endorsement) {
				e.Endorser, e.Signature = net.signers[0].Identity, net.signers[0].Sign(e.Digest)
			}
		},
		"a stranger's signature": func(*Network) func(*msp.Endorsement) {
			return func(e *msp.Endorsement) {
				e.Endorser, e.Signature = stranger.Identity, stranger.Sign(e.Digest)
			}
		},
	}
	for name, forgery := range forgeries {
		t.Run(name, func(t *testing.T) {
			net := newTestNetwork(t, Config{NumPeers: 4})
			ch := net.ChannelAt(0)
			forger, last := ch.Peer(1).ID(), ch.Peer(3).ID()
			answered := make(chan struct{}, 16)
			forge := forgery(net)
			gw := newGateway(stubBackend{ch, func(e Endorser) Endorser {
				switch e.ID() {
				case forger:
					return forgingEndorser{e, forge, answered}
				case last:
					return waitingEndorser{e, answered}
				}
				return e
			}}, ch, newClient(t))
			for i := 0; i < 3; i++ {
				res, err := gw.Submit("kv", "put", []byte(fmt.Sprintf("f%d", i)), []byte("v"))
				if err != nil {
					t.Fatalf("store %d: %v", i, err)
				}
				if res.Flag != ledger.Valid {
					t.Fatalf("store %d committed %s", i, res.Flag)
				}
			}
		})
	}
}

func TestGatewayNoActiveEndorsers(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4, WatchdogThreshold: 1})
	// Flag every peer.
	for _, p := range net.ChannelAt(0).Peers() {
		net.ChannelAt(0).Watchdog().Report(p.ID(), "test")
	}
	gw := net.ChannelAt(0).Gateway(newClient(t))
	if _, err := gw.Submit("kv", "put", []byte("x"), []byte("y")); err == nil {
		t.Fatal("submit succeeded with no active endorsers")
	}
	if _, err := gw.Evaluate("kv", "get", []byte("x")); err == nil {
		t.Fatal("evaluate succeeded with no active endorsers")
	}
}

func TestActiveEndorsersShrinkOnFlag(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4, WatchdogThreshold: 1})
	if got := len(net.ChannelAt(0).ActiveEndorsers()); got != 4 {
		t.Fatalf("active = %d", got)
	}
	net.ChannelAt(0).Watchdog().Report(net.ChannelAt(0).Peer(2).ID(), "endorsed mismatching digest")
	if got := len(net.ChannelAt(0).ActiveEndorsers()); got != 3 {
		t.Fatalf("active after flag = %d", got)
	}
	// The flagged peer is specifically the missing one.
	for _, p := range net.ChannelAt(0).ActiveEndorsers() {
		if p.ID() == net.ChannelAt(0).Peer(2).ID() {
			t.Fatal("flagged peer still active")
		}
	}
}

func TestNetworkStartStopIdempotent(t *testing.T) {
	net := openTestNetwork(t, Config{NumPeers: 4})
	net.Start()
	net.Start() // no-op
	net.Stop()
	net.Stop() // no-op
}

func TestDeployDuplicateChaincode(t *testing.T) {
	net := openTestNetwork(t, Config{NumPeers: 4})
	if err := net.Deploy(kvCC{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Deploy(kvCC{}); err == nil {
		t.Fatal("duplicate deploy accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	net := openTestNetwork(t, Config{})
	if net.NumPeers() != 4 {
		t.Fatalf("default peers = %d", net.NumPeers())
	}
	if net.ChannelAt(0).Name() != "traffic-channel" {
		t.Fatalf("default channel = %s", net.ChannelAt(0).Name())
	}
	if got := net.Policy(); got != msp.TwoThirds(4) {
		t.Fatalf("default policy %+v, want two-thirds of 4", got)
	}
}
