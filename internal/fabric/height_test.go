package fabric

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"socialchain/internal/ledger"
	"socialchain/internal/ordering"
	"socialchain/internal/peer"
	"socialchain/internal/sim"
)

// laggingLatency delays every message between nodes that is addressed to
// one of the lagging peers, so those peers commit each block later than
// the others do. The client's hop to a peer is not delayed.
type laggingLatency struct {
	lagging map[string]bool
	d       time.Duration
}

func (l laggingLatency) Delay(from, to string) time.Duration {
	if from != "client" && l.lagging[to] {
		return l.d
	}
	return 0
}

// newLaggingNetwork builds a network whose peers 1-3 receive consensus
// traffic 20 ms late. A receipt from peer 0 then precedes the other three
// peers' commit of the same block, and those three alone satisfy the
// endorsement policy.
func newLaggingNetwork(t *testing.T) *Network {
	return newTestNetwork(t, Config{
		NumPeers: 4,
		Latency:  laggingLatency{lagging: map[string]bool{"peer1": true, "peer2": true, "peer3": true}, d: 20 * time.Millisecond},
		Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 5 * time.Millisecond},
	})
}

// TestSerialSubmitsReadTheirWrites: a client that increments one counter
// store after store, through peers that commit each block after the
// client's receipt, never endorses against a stale counter. Every receipt
// is VALID on its first envelope: the chain holds exactly one transaction
// per store and none of them is flagged.
func TestSerialSubmitsReadTheirWrites(t *testing.T) {
	net := newLaggingNetwork(t)
	ch := net.ChannelAt(0)
	gw := ch.Gateway(newClient(t))
	const n = 12
	var last *Result
	for i := 0; i < n; i++ {
		res, err := gw.Submit("kv", "increment", []byte("ctr"))
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		if res.Flag != ledger.Valid {
			t.Fatalf("store %d committed %s", i, res.Flag)
		}
		last = res
	}
	if got := string(last.Response); got != "12" {
		t.Fatalf("the last increment returned %q, want 12", got)
	}
	if !ch.WaitHeight(last.BlockNum+1, 5*time.Second) {
		t.Fatal("peers did not converge")
	}
	txs := 0
	lgr := ch.Peer(0).Ledger()
	for b := uint64(0); b < lgr.Height(); b++ {
		block, err := lgr.GetBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		for i, flag := range block.Metadata.Flags {
			if flag != ledger.Valid {
				t.Errorf("block %d tx %d (%s) is %s", b, i, block.Txs[i].ID, flag)
			}
			txs++
		}
	}
	if txs != n {
		t.Fatalf("the chain holds %d transactions for %d stores", txs, n)
	}
}

// stubBackend is a channel whose endorsers are wrapped by wrap.
type stubBackend struct {
	*Channel
	wrap func(Endorser) Endorser
}

func (b stubBackend) activeEndorsers() []Endorser {
	out := b.Channel.activeEndorsers()
	for i, e := range out {
		out[i] = b.wrap(e)
	}
	return out
}

// silentEndorser never answers until release closes.
type silentEndorser struct {
	Endorser
	release chan struct{}
}

func (e silentEndorser) Endorse(*peer.Proposal) (*peer.ProposalResponse, error) {
	<-e.release
	return nil, errors.New("silent endorser released")
}

// TestQuorumDoesNotWaitForSilentEndorser: a store returns once one digest
// group satisfies the policy. An endorser that never answers does not
// stall it.
func TestQuorumDoesNotWaitForSilentEndorser(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	ch := net.ChannelAt(0)
	release := make(chan struct{})
	defer close(release)
	silent := ch.Peer(1).ID()
	gw := newGateway(stubBackend{ch, func(e Endorser) Endorser {
		if e.ID() == silent {
			return silentEndorser{e, release}
		}
		return e
	}}, ch, newClient(t))
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			res, err := gw.Submit("kv", "put", []byte{byte('a' + i)}, []byte("v"))
			if err == nil {
				err = res.Err()
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit waited for the endorser that never answers")
	}
}

// TestEndorseWaitsForMinHeight drives the endorser's wait on a fake
// clock. A MinHeight the chain never reaches is refused as behind once the
// clock passes the wait bound, with no real sleep. A MinHeight one block
// ahead is endorsed once that block commits, and the endorsement reads
// that block's write.
func TestEndorseWaitsForMinHeight(t *testing.T) {
	clk := sim.NewFakeClock(time.Unix(1_700_000_000, 0))
	net, err := NewNetwork(Config{
		NumPeers: 4,
		Clock:    clk,
		Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.MustDeploy(kvCC{})
	t.Cleanup(net.Stop)
	ch := net.ChannelAt(0)
	gw := ch.Gateway(newClient(t))
	node := net.nodes[0]

	// Before the network starts no other timer is pending, so the one
	// the endorser arms is the only one.
	prop, err := newRawProposal(gw, "kv", "get", [][]byte{[]byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	prop.MinHeight = node.Peer().Height() + 5
	behind := make(chan error, 1)
	go func() {
		_, err := node.Endorse(prop)
		behind <- err
	}()
	for clk.PendingTimers() == 0 {
		runtime.Gosched()
	}
	clk.Advance(behindWait)
	if err := <-behind; !errors.Is(err, ErrBehind) {
		t.Fatalf("endorse below MinHeight: %v, want ErrBehind", err)
	}

	net.Start()
	ahead, err := newRawProposal(gw, "kv", "get", [][]byte{[]byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	ahead.MinHeight = node.Peer().Height() + 1
	type endorsed struct {
		resp *peer.ProposalResponse
		err  error
	}
	got := make(chan endorsed, 1)
	go func() {
		resp, err := node.Endorse(ahead)
		got <- endorsed{resp, err}
	}()
	res, err := gw.Submit("kv", "put", []byte("k"), []byte("v"))
	if err != nil || res.Flag != ledger.Valid {
		t.Fatalf("submit: %v %v", res, err)
	}
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if string(r.resp.Response) != "v" {
		t.Fatalf("endorsed read %q, want the committed write", r.resp.Response)
	}
}

// TestCatchingUpEndorserRefusesAtOnce: a peer out of live delivery — here
// a decided batch failed to commit on it — refuses a proposal above its
// height at once instead of waiting behindWait for a commit that the
// anti-entropy loop, not consensus, will bring. A store meanwhile makes
// quorum without it, and the next batch it commits live puts it back to
// waiting.
func TestCatchingUpEndorserRefusesAtOnce(t *testing.T) {
	clk := sim.NewFakeClock(time.Unix(1_700_000_000, 0))
	net, err := NewNetwork(Config{
		NumPeers: 4,
		Clock:    clk,
		Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.MustDeploy(kvCC{})
	t.Cleanup(net.Stop)
	ch := net.ChannelAt(0)
	gw := ch.Gateway(newClient(t))
	node := net.nodes[1]
	node.deliver(0, []byte("not a batch"))

	endorse := func(minHeight uint64) chan error {
		prop, err := newRawProposal(gw, "kv", "get", [][]byte{[]byte("k")})
		if err != nil {
			t.Fatal(err)
		}
		prop.MinHeight = minHeight
		done := make(chan error, 1)
		go func() {
			_, err := node.Endorse(prop)
			done <- err
		}()
		return done
	}
	// The clock never moves here, so only a refusal that does not wait
	// for it can return.
	select {
	case err := <-endorse(node.Peer().Height() + 1):
		if !errors.Is(err, ErrBehind) {
			t.Fatalf("catching-up endorser: %v, want ErrBehind", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the catching-up endorser waited for a height it was not going to reach live")
	}

	net.Start()
	res, err := gw.Submit("kv", "put", []byte("k"), []byte("v"))
	if err != nil || res.Flag != ledger.Valid {
		t.Fatalf("submit past the catching-up endorser: %v %v", res, err)
	}
	if !ch.WaitHeight(res.BlockNum+1, 5*time.Second) {
		t.Fatal("peers did not converge")
	}
	waiting := endorse(node.Peer().Height() + 1)
	if res, err := gw.Submit("kv", "put", []byte("k"), []byte("w")); err != nil || res.Flag != ledger.Valid {
		t.Fatalf("second submit: %v %v", res, err)
	}
	if err := <-waiting; err != nil {
		t.Fatalf("after a live commit the endorser refused: %v", err)
	}
}

// countingEndorser counts the proposals an endorser is asked to evaluate
// and, when behind is set, refuses every one of them as behind.
type countingEndorser struct {
	Endorser
	asked  *atomic.Int64
	behind bool
}

func (e countingEndorser) Endorse(prop *peer.Proposal) (*peer.ProposalResponse, error) {
	e.asked.Add(1)
	if e.behind {
		return nil, fmt.Errorf("%w: stub", ErrBehind)
	}
	return e.Endorser.Endorse(prop)
}

// TestEvaluateMovesOnOnlyWhenBehind: a read moves past peers that are
// behind the client's height to one that can serve it, and a chaincode
// error is an answer: it returns after one peer is asked.
func TestEvaluateMovesOnOnlyWhenBehind(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	ch := net.ChannelAt(0)
	if _, err := ch.Gateway(newClient(t)).Submit("kv", "put", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	var asked atomic.Int64
	serving := ch.Peer(3).ID()
	gw := newGateway(stubBackend{ch, func(e Endorser) Endorser {
		return countingEndorser{e, &asked, e.ID() != serving}
	}}, ch, newClient(t))
	for i := 0; i < 4; i++ {
		got, err := gw.Evaluate("kv", "get", []byte("k"))
		if err != nil || string(got) != "v" {
			t.Fatalf("read %d past three behind peers: %q, %v", i, got, err)
		}
	}

	asked.Store(0)
	gw = newGateway(stubBackend{ch, func(e Endorser) Endorser {
		return countingEndorser{e, &asked, false}
	}}, ch, newClient(t))
	if _, err := gw.Evaluate("kv", "fail"); err == nil {
		t.Fatal("a failing chaincode read returned no error")
	}
	if n := asked.Load(); n != 1 {
		t.Fatalf("a chaincode error asked %d peers, want 1", n)
	}
}

// refusedFirst refuses a proposal as behind, then closes refused, so the
// endorsers wrapped in afterRefusal answer after it. It serves one
// proposal.
type refusedFirst struct {
	Endorser
	refused chan struct{}
}

func (e refusedFirst) Endorse(*peer.Proposal) (*peer.ProposalResponse, error) {
	defer close(e.refused)
	return nil, fmt.Errorf("%w: stub", ErrBehind)
}

type afterRefusal struct {
	Endorser
	refused chan struct{}
}

func (e afterRefusal) Endorse(prop *peer.Proposal) (*peer.ProposalResponse, error) {
	<-e.refused
	return e.Endorser.Endorse(prop)
}

// TestSubmitReportsAnAnswerOverABehindRefusal: when no endorser endorses,
// Submit returns the chaincode's error, not the refusal of a peer that is
// behind, even when that refusal comes first. Callers match on it:
// trafficgen's bootstrap tolerates an "already registered" user.
func TestSubmitReportsAnAnswerOverABehindRefusal(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	ch := net.ChannelAt(0)
	behind := ch.Peer(1).ID()
	refused := make(chan struct{})
	gw := newGateway(stubBackend{ch, func(e Endorser) Endorser {
		if e.ID() == behind {
			return refusedFirst{e, refused}
		}
		return afterRefusal{e, refused}
	}}, ch, newClient(t))
	_, err := gw.Submit("kv", "fail")
	if err == nil || errors.Is(err, ErrBehind) || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("submit of a failing call: %v, want the chaincode's error", err)
	}
}
