package consensus

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/sim"
	"socialchain/internal/transport"
)

// Config assembles a validator.
type Config struct {
	// ID is this validator's name; it must appear in Validators.
	ID string
	// Validators is the ordered membership; the leader of view v is
	// Validators[v mod n] (skipping evicted members).
	Validators []string
	// Signer signs outgoing messages.
	Signer *msp.Signer
	// Identities maps validator IDs to their verification identities.
	Identities map[string]msp.Identity
	// Sender carries messages to peers and holds this replica's inbound
	// queue; one Bus per validator.
	Sender *Bus
	// Clock drives timeouts (nil = real clock).
	Clock sim.Clock
	// RequestTimeout is how long a pending request may wait before this
	// validator votes for a view change. Zero selects a 2 s default.
	RequestTimeout time.Duration
	// Behavior injects byzantine faults (nil = honest).
	Behavior Behavior
	// Deliver is invoked with each decided payload, in decision order.
	Deliver func(seq uint64, payload []byte)
	// OnEvict is invoked when this validator evicts a peer (may be nil).
	OnEvict func(id string)
	// Obs receives this replica's metrics: decide latency, delivered and
	// view-change counters, backlog depth, signature-check counts. nil
	// leaves the replica fully functional with dangling instruments.
	Obs *obs.Registry
}

type request struct {
	payload  []byte
	arrived  time.Time
	inFlight bool
}

// instance is one sequence number's agreement state. Once executed it
// keeps only its view and digest (enough to convict a leader that signs a
// second pre-prepare for the slot): the payload and the pre-prepare header
// are released when the payload is handed to Deliver, so the pruning
// window of decided instances pins no batches.
type instance struct {
	view       uint64
	digest     [32]byte
	payload    []byte
	prePrepare []byte // leader-signed pre-prepare header (encodeHeader), the evidence every prepare carries
	prepares   map[string]bool
	commits    map[string]bool
	sentCommit bool
	executed   bool
}

// Validator is one PBFT replica.
type Validator struct {
	cfg  Config
	n, f int

	proposals *transport.Queue[[]byte]
	stopCh    chan struct{}
	doneCh    chan struct{}
	stopOnce  sync.Once

	// sigs checks and counts every signature this replica meets; signs
	// counts the ones it makes (signCopy).
	sigs  msp.Verifier
	signs atomic.Int64

	mu              sync.Mutex
	view            uint64
	nextSeq         uint64
	lastExec        uint64
	insts           map[uint64]*instance
	pending         map[[32]byte]*request
	delivered       map[[32]byte]bool
	evicted         map[string]bool
	vcVotes         map[uint64]map[string][]byte // view -> voter -> encoded VC message
	vcTarget        uint64                       // view we are currently voting for (0 = none)
	vcStarted       time.Time
	future          map[uint64][]*Message // view -> protocol messages deferred until we enter it
	deliveredCount  int
	viewChangeCount int

	// obsDecide times request arrival -> execution (the consensus_decide
	// stage); always non-nil, dangling when Config.Obs is nil.
	obsDecide *obs.Histogram
}

// maxFutureMsgs bounds the per-view buffer of early-arriving protocol
// messages and maxFutureViews bounds how far ahead of the current view a
// message may be to get buffered at all; together they cap the memory a
// byzantine flood of fabricated views can pin.
const (
	maxFutureMsgs  = 4096
	maxFutureViews = 8
)

// NewValidator constructs (but does not start) a replica.
func NewValidator(cfg Config) *Validator {
	if cfg.Clock == nil {
		cfg.Clock = sim.RealClock{}
	}
	if cfg.Behavior == nil {
		cfg.Behavior = Honest{}
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	n := len(cfg.Validators)
	v := &Validator{
		cfg:       cfg,
		n:         n,
		f:         (n - 1) / 3,
		proposals: transport.NewQueue[[]byte](maxProposals),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		nextSeq:   1,
		insts:     make(map[uint64]*instance),
		pending:   make(map[[32]byte]*request),
		delivered: make(map[[32]byte]bool),
		evicted:   make(map[string]bool),
		vcVotes:   make(map[uint64]map[string][]byte),
		future:    make(map[uint64][]*Message),
	}
	v.obsDecide = cfg.Obs.Histogram("tx_stage_seconds", "Per-stage transaction pipeline latency.", nil,
		obs.L("stage", "consensus_decide"))
	cfg.Obs.CounterFunc("consensus_delivered_total", "Payloads this replica has delivered in decision order.", func() int64 {
		return int64(v.DeliveredCount())
	})
	cfg.Obs.CounterFunc("consensus_view_changes_total", "View changes this replica has completed.", func() int64 {
		return int64(v.ViewChanges())
	})
	cfg.Obs.GaugeFunc("consensus_backlog", "Requests admitted and not yet decided.", func() float64 {
		return float64(v.Backlog())
	})
	cfg.Obs.GaugeFunc("consensus_inbox_messages", "Messages received and not yet taken by the replica: a replica falling behind holds more.", func() float64 {
		return float64(cfg.Sender.inbox.Len())
	})
	reg := cfg.Obs.With(obs.L("component", "consensus"))
	v.sigs.Register(reg)
	reg.CounterFunc("signatures_made_total", "Signatures made: one per message originated, one more per recipient a behaviour filter alters it for.", v.signs.Load)
	return v
}

// Start launches the replica's event loop.
func (v *Validator) Start() { go v.loop() }

// Stop terminates the replica and waits for the loop to exit. Deliver runs
// on the loop, so no delivery is in progress once Stop returns. Nor is any
// other writer of the instance log and request sets, which Stop then
// empties, and the bus's inbox and the propose queue are closed, so a
// stopped replica pins no payloads or messages and accepts none.
// Idempotent.
func (v *Validator) Stop() {
	v.stopOnce.Do(func() {
		close(v.stopCh)
		<-v.doneCh
		v.mu.Lock()
		v.insts, v.pending, v.delivered = map[uint64]*instance{}, map[[32]byte]*request{}, map[[32]byte]bool{}
		v.future, v.vcVotes = map[uint64][]*Message{}, map[uint64]map[string][]byte{}
		v.mu.Unlock()
		v.cfg.Sender.inbox.Close()
		v.proposals.Close()
	})
}

// VerifyCacheStats reports the replica's signature checks: skipped ones
// were answered without running ed25519 (pre-prepare evidence byte-identical
// to the verified local copy, a tuple repeated within one drained inbox
// batch), verified ones ran it. Nothing is cached; the name is kept for its
// callers, which read the skipped share as the hit ratio.
func (v *Validator) VerifyCacheStats() (skipped, verified int64) {
	return v.sigs.Stats()
}

// maxProposals bounds the payloads queued for the event loop; Propose
// waits while it is reached.
const maxProposals = 1024

// Propose submits a payload for total ordering. Any replica may be used as
// the entry point; the request is broadcast to all replicas so a future
// leader can still propose it after a view change. It waits while
// maxProposals payloads are queued, and returns at once on a stopped
// replica.
func (v *Validator) Propose(payload []byte) {
	v.proposals.PushWait(payload, v.stopCh)
}

// View returns the replica's current view.
func (v *Validator) View() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.view
}

// LastExecuted returns the highest executed sequence number.
func (v *Validator) LastExecuted() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.lastExec
}

// DeliveredCount returns how many payloads this replica has delivered.
func (v *Validator) DeliveredCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.deliveredCount
}

// Backlog reports the requests this replica has admitted and not yet
// decided. The /healthz stall probe reads it — a backlog that never drains
// while the chain height stands still is a wedged channel.
func (v *Validator) Backlog() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pending)
}

// ViewChanges returns how many view changes this replica has completed.
func (v *Validator) ViewChanges() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.viewChangeCount
}

// EvictedPeers returns the sorted ids this replica has evicted.
func (v *Validator) EvictedPeers() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.evicted))
	for id := range v.evicted {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// leaderOf returns the leader id of a view, skipping evicted validators.
func (v *Validator) leaderOf(view uint64) string {
	for i := 0; i < v.n; i++ {
		id := v.cfg.Validators[(view+uint64(i))%uint64(v.n)]
		if !v.evicted[id] {
			return id
		}
	}
	return v.cfg.Validators[view%uint64(v.n)]
}

// IsLeader reports whether this replica leads its current view.
func (v *Validator) IsLeader() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.leaderOf(v.view) == v.cfg.ID
}

// quorum is the 2f+1 agreement threshold; with n = 3f+1 this is the
// paper's "at least two-thirds of the peers agree".
func (v *Validator) quorum() int { return 2*v.f + 1 }

// --- messaging ---

// signCopy copies out, stamps this replica as origin and signs, counting
// the signature.
func (v *Validator) signCopy(out *Message) *Message {
	cp := *out
	cp.From = v.cfg.ID
	cp.Signature = v.cfg.Signer.Sign(cp.SigningBytes())
	v.signs.Add(1)
	return &cp
}

// broadcast sends m, which signCopy signed, to every other replica. The
// replicas the behaviour filter passes it to untouched (all of them, in
// the honest case) get m itself, encoded once: the message the sender
// processes locally is the one they receive, so each message a replica
// originates is signed once. A filter that alters a message returns a
// fresh copy, which is signed and sent for its recipient alone.
func (v *Validator) broadcast(m *Message) {
	var same []string
	for _, id := range v.cfg.Validators {
		if id == v.cfg.ID {
			continue
		}
		switch out := v.cfg.Behavior.OutboundFilter(id, m); out {
		case nil:
		case m:
			same = append(same, id)
		default:
			v.cfg.Sender.Send(v.signCopy(out), id)
		}
	}
	if len(same) > 0 {
		v.cfg.Sender.Send(m, same...)
	}
}

// verify checks the origin signature of a message.
func (v *Validator) verify(m *Message) bool {
	id, ok := v.cfg.Identities[m.From]
	if !ok {
		return false
	}
	return v.sigs.Verify(id, m.SigningBytes(), m.Signature)
}

// --- event loop ---

func (v *Validator) loop() {
	defer close(v.doneCh)
	tick := v.cfg.RequestTimeout / 4
	if tick <= 0 {
		tick = 50 * time.Millisecond
	}
	timer := v.cfg.Clock.After(tick)
	inbox := v.cfg.Sender.inbox
	var batch []*Message
	for {
		select {
		case <-v.stopCh:
			return
		case <-v.proposals.Ready():
			if payload, ok := v.proposals.Pop(); ok {
				v.handleRequestPayload(payload, true)
			}
		case <-inbox.Ready():
			if batch = inbox.Drain(batch[:0], maxInboxDrain); len(batch) > 0 {
				v.dispatchBatch(batch)
				clear(batch) // pin no message past its handling
			}
		case <-timer:
			v.checkTimeouts()
			timer = v.cfg.Clock.After(tick)
		}
	}
}

// maxInboxDrain caps how many queued messages one loop iteration takes,
// so verification is amortised across a batch and a full inbox cannot
// starve the proposals and the timer.
const maxInboxDrain = 64

// dispatchBatch verifies a drained batch of messages in one parallel pass
// (a message delivered twice is checked once), then handles them in
// arrival order. Under quorum load a validator's inbox holds the same
// round's votes from every peer; checking them together amortises
// signature cost across cores.
func (v *Validator) dispatchBatch(msgs []*Message) {
	if len(msgs) == 1 {
		v.dispatch(msgs[0])
		return
	}
	items := make([]msp.VerifyItem, 0, len(msgs))
	idx := make([]int, 0, len(msgs))
	verdicts := make([]bool, len(msgs))
	for i, m := range msgs {
		if id, ok := v.cfg.Identities[m.From]; ok {
			items = append(items, msp.VerifyItem{Identity: id, Message: m.SigningBytes(), Signature: m.Signature})
			idx = append(idx, i)
		}
	}
	for j, ok := range v.sigs.VerifyBatchEach(items) {
		verdicts[idx[j]] = ok
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, m := range msgs {
		if !verdicts[i] || v.evicted[m.From] {
			continue
		}
		v.handleVerified(m)
	}
}

func (v *Validator) dispatch(m *Message) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.evicted[m.From] {
		return
	}
	if !v.verify(m) {
		return
	}
	v.handleVerified(m)
}

// handleVerified routes an authenticated message. Caller holds mu.
func (v *Validator) handleVerified(m *Message) {
	switch m.Type {
	case MsgRequest:
		v.onRequest(m)
	case MsgPrePrepare, MsgPrepare, MsgCommit:
		if m.View > v.view {
			// A replica that already entered a higher view races its NewView
			// announcement against its first pre-prepares/votes; defer the
			// message and replay it once we follow (losing it would force
			// another view change and can livelock the whole group).
			v.deferToView(m)
			return
		}
		switch m.Type {
		case MsgPrePrepare:
			v.onPrePrepare(m)
		case MsgPrepare:
			v.onPrepare(m)
		case MsgCommit:
			v.onCommit(m)
		}
	case MsgViewChange:
		v.onViewChange(m)
	case MsgNewView:
		v.onNewView(m)
	}
}

// deferToView buffers a protocol message from a view ahead of ours. Both
// the view window and the per-view count are bounded, so a byzantine peer
// fabricating ever-higher views cannot grow memory without limit. Caller
// holds mu.
func (v *Validator) deferToView(m *Message) {
	if m.View > v.view+maxFutureViews {
		return // too far ahead to be a plausible in-flight race
	}
	if len(v.future[m.View]) >= maxFutureMsgs {
		return
	}
	v.future[m.View] = append(v.future[m.View], m)
}

// handleRequestPayload admits a client payload (entry replica) and gossips
// it to all replicas.
func (v *Validator) handleRequestPayload(payload []byte, gossip bool) {
	v.mu.Lock()
	digest := DigestOf(payload)
	fresh := v.admitRequest(digest, payload)
	isLeader := v.leaderOf(v.view) == v.cfg.ID
	v.mu.Unlock()

	if gossip && fresh {
		v.broadcast(v.signCopy(&Message{Type: MsgRequest, Digest: digest, Payload: payload}))
	}
	if isLeader {
		v.mu.Lock()
		v.proposePending()
		v.mu.Unlock()
	}
}

// admitRequest records a request if unseen; returns whether it was new.
// Caller holds mu.
func (v *Validator) admitRequest(digest [32]byte, payload []byte) bool {
	if v.delivered[digest] {
		return false
	}
	if _, ok := v.pending[digest]; ok {
		return false
	}
	v.pending[digest] = &request{payload: payload, arrived: v.cfg.Clock.Now()}
	return true
}

func (v *Validator) onRequest(m *Message) {
	if DigestOf(m.Payload) != m.Digest {
		return
	}
	v.admitRequest(m.Digest, m.Payload)
	if v.leaderOf(v.view) == v.cfg.ID {
		v.proposePending()
	}
}

// proposePending assigns sequence numbers to every non-in-flight request
// and broadcasts their pre-prepares. Caller holds mu.
func (v *Validator) proposePending() {
	digests := make([][32]byte, 0, len(v.pending))
	for d := range v.pending {
		digests = append(digests, d)
	}
	// Deterministic order so re-proposals after a view change agree.
	sort.Slice(digests, func(i, j int) bool {
		for k := range digests[i] {
			if digests[i][k] != digests[j][k] {
				return digests[i][k] < digests[j][k]
			}
		}
		return false
	})
	for _, d := range digests {
		req := v.pending[d]
		if req == nil || req.inFlight {
			// nil: the snapshot entry was decided (and removed) by an
			// earlier iteration's self-quorum execution chain.
			continue
		}
		seq := v.nextSeq
		v.nextSeq++
		req.inFlight = true
		pp := v.signCopy(&Message{Type: MsgPrePrepare, View: v.view, Seq: seq, Digest: d, Payload: req.payload})
		// Process our own pre-prepare before broadcasting.
		v.onPrePrepare(pp)
		v.mu.Unlock()
		v.broadcast(pp)
		v.mu.Lock()
	}
}

func (v *Validator) onPrePrepare(m *Message) {
	if m.From != v.leaderOf(m.View) || m.View != v.view {
		return
	}
	if DigestOf(m.Payload) != m.Digest {
		return
	}
	if m.Seq <= v.lastExec {
		// Decided: nothing here can change, but a second pre-prepare for
		// the same (view, seq) with another digest is still conclusive
		// equivocation (an executed instance always had its leader's
		// pre-prepare).
		if inst, ok := v.insts[m.Seq]; ok && inst.executed && inst.view == m.View && inst.digest != m.Digest {
			v.evict(m.From)
		}
		return
	}
	inst, ok := v.insts[m.Seq]
	if ok && inst.view == m.View {
		if inst.digest != m.Digest && len(inst.prePrepare) > 0 {
			// The leader signed two different pre-prepares for the same
			// (view, seq): conclusive equivocation.
			v.evict(m.From)
			return
		}
	} else {
		inst = v.newInstance(m.View, m.Seq, m.Digest, m.Payload)
		v.insts[m.Seq] = inst
	}
	if len(inst.prePrepare) == 0 {
		if inst.digest != m.Digest {
			// The shell was created from early votes for a different digest;
			// those votes must not count toward this instance's quorum.
			inst.prepares = make(map[string]bool)
			inst.commits = make(map[string]bool)
		}
		inst.prePrepare = m.encodeHeader()
		inst.payload = m.Payload
		inst.digest = m.Digest
		// The leader's pre-prepare counts as its prepare vote.
		inst.prepares[m.From] = true
	}
	// Send our prepare, carrying the leader-signed pre-prepare header as
	// evidence.
	prep := v.signCopy(&Message{Type: MsgPrepare, View: m.View, Seq: m.Seq, Digest: m.Digest, PrePrepareEvidence: inst.prePrepare})
	v.applyPrepare(prep)
	v.mu.Unlock()
	v.broadcast(prep)
	v.mu.Lock()
	v.maybeCommitPhase(m.Seq)
}

func (v *Validator) newInstance(view, seq uint64, digest [32]byte, payload []byte) *instance {
	return &instance{
		view:     view,
		digest:   digest,
		payload:  payload,
		prepares: make(map[string]bool),
		commits:  make(map[string]bool),
	}
}

func (v *Validator) onPrepare(m *Message) {
	if m.View != v.view || m.Seq <= v.lastExec {
		return // stale view, or a late vote for a decided sequence
	}
	v.checkEquivocationEvidence(m)
	v.applyPrepare(m)
	v.maybeCommitPhase(m.Seq)
}

// applyPrepare counts a prepare vote. Caller holds mu.
func (v *Validator) applyPrepare(m *Message) {
	inst, ok := v.insts[m.Seq]
	if !ok {
		// Prepare arrived before the pre-prepare; create a shell the
		// pre-prepare will fill.
		inst = v.newInstance(m.View, m.Seq, m.Digest, nil)
		v.insts[m.Seq] = inst
	}
	if inst.digest == m.Digest {
		inst.prepares[m.From] = true
	}
}

// checkEquivocationEvidence inspects the embedded pre-prepare header for
// conflict with what we received from the leader. Caller holds mu.
//
// An honest replica embeds the header of the leader's pre-prepare exactly
// as it arrived, and encodings are canonical, so evidence from an honest
// leader's round is byte-identical to the local header — whose pre-prepare
// was verified on arrival, or signed here — and needs no second check.
// Without a local pre-prepare there is nothing to convict against. Only
// differing evidence is decoded and verified; a validly signed header for
// the slot naming another digest convicts, as in PBFT.
func (v *Validator) checkEquivocationEvidence(m *Message) {
	if len(m.PrePrepareEvidence) == 0 {
		return
	}
	own := v.insts[m.Seq]
	if own == nil || len(own.prePrepare) == 0 {
		return
	}
	if bytes.Equal(own.prePrepare, m.PrePrepareEvidence) {
		v.sigs.Skip()
		return
	}
	pp, err := DecodeMessage(m.PrePrepareEvidence)
	if err != nil || pp.Type != MsgPrePrepare {
		return
	}
	leader := pp.From
	id, ok := v.cfg.Identities[leader]
	if !ok || !v.sigs.Verify(id, pp.SigningBytes(), pp.Signature) {
		return
	}
	inst, ok := v.insts[pp.Seq]
	if !ok || inst.view != pp.View || len(inst.prePrepare) == 0 {
		return
	}
	local, err := DecodeMessage(inst.prePrepare)
	if err != nil || local.From != leader {
		return
	}
	if local.Digest != pp.Digest {
		// Two validly signed pre-prepares from the same leader for the same
		// (view, seq) with different digests.
		v.evict(leader)
	}
}

// maybeCommitPhase advances an instance to the commit phase once 2f+1
// prepare votes (including the leader's pre-prepare) match. Caller holds mu.
func (v *Validator) maybeCommitPhase(seq uint64) {
	inst, ok := v.insts[seq]
	if !ok || inst.sentCommit || len(inst.prePrepare) == 0 {
		return
	}
	if len(inst.prepares) < v.quorum() {
		return
	}
	inst.sentCommit = true
	cm := v.signCopy(&Message{Type: MsgCommit, View: inst.view, Seq: seq, Digest: inst.digest})
	inst.commits[cm.From] = true
	v.mu.Unlock()
	v.broadcast(cm)
	v.mu.Lock()
	v.maybeExecute()
}

func (v *Validator) onCommit(m *Message) {
	if m.View != v.view || m.Seq <= v.lastExec {
		return // stale view, or a late vote for a decided sequence
	}
	inst, ok := v.insts[m.Seq]
	if !ok {
		inst = v.newInstance(m.View, m.Seq, m.Digest, nil)
		v.insts[m.Seq] = inst
	}
	if inst.digest == m.Digest {
		inst.commits[m.From] = true
	}
	v.maybeExecute()
}

// maybeExecute delivers committed instances in sequence order, inline on
// the event loop with mu released. Caller holds mu.
func (v *Validator) maybeExecute() {
	for {
		inst, ok := v.insts[v.lastExec+1]
		if !ok || inst.executed || inst.payload == nil {
			break
		}
		if len(inst.commits) < v.quorum() || !inst.sentCommit {
			break
		}
		inst.executed = true
		v.lastExec++
		digest := inst.digest
		payload := inst.payload
		inst.payload, inst.prePrepare = nil, nil
		if req := v.pending[digest]; req != nil {
			v.obsDecide.Observe(v.cfg.Clock.Now().Sub(req.arrived))
		}
		delete(v.pending, digest)
		already := v.delivered[digest]
		v.delivered[digest] = true
		if v.nextSeq <= v.lastExec {
			v.nextSeq = v.lastExec + 1
		}
		if !already && v.cfg.Deliver != nil {
			v.deliveredCount++
			seq := v.lastExec
			v.mu.Unlock()
			v.cfg.Deliver(seq, payload)
			v.mu.Lock()
		}
		if v.lastExec > 64 {
			delete(v.insts, v.lastExec-64) // prune old instances
		}
	}
}

// --- view change ---

func (v *Validator) checkTimeouts() {
	v.mu.Lock()
	defer v.mu.Unlock()
	now := v.cfg.Clock.Now()
	// Escalate an in-progress view change that itself timed out.
	if v.vcTarget > v.view && now.Sub(v.vcStarted) > v.cfg.RequestTimeout {
		v.voteViewChange(v.vcTarget + 1)
		return
	}
	if v.vcTarget > v.view {
		return // view change in progress
	}
	for _, req := range v.pending {
		if now.Sub(req.arrived) > v.cfg.RequestTimeout {
			v.voteViewChange(v.view + 1)
			return
		}
	}
}

// voteViewChange broadcasts a view-change vote for the target view. Caller
// holds mu.
func (v *Validator) voteViewChange(target uint64) {
	if target <= v.view {
		return
	}
	v.vcTarget = target
	v.vcStarted = v.cfg.Clock.Now()
	vc := v.signCopy(&Message{Type: MsgViewChange, View: target, Seq: v.lastExec})
	v.recordViewChangeVote(vc)
	v.mu.Unlock()
	v.broadcast(vc)
	v.mu.Lock()
	v.maybeNewView(target)
}

func (v *Validator) onViewChange(m *Message) {
	if m.View <= v.view {
		return
	}
	v.recordViewChangeVote(m)
	// Join the view change once f+1 peers vote for a higher view: at least
	// one honest replica observed a failure.
	if len(v.vcVotes[m.View]) > v.f && v.vcTarget < m.View {
		v.voteViewChange(m.View)
		return
	}
	v.maybeNewView(m.View)
}

// recordViewChangeVote stores an encoded, signed vote. Caller holds mu.
func (v *Validator) recordViewChangeVote(m *Message) {
	votes, ok := v.vcVotes[m.View]
	if !ok {
		votes = make(map[string][]byte)
		v.vcVotes[m.View] = votes
	}
	votes[m.From] = m.Encode()
}

// maybeNewView lets the leader of the target view announce it once 2f+1
// votes are collected. Caller holds mu.
func (v *Validator) maybeNewView(target uint64) {
	if v.leaderOf(target) != v.cfg.ID || target <= v.view {
		return
	}
	votes := v.vcVotes[target]
	if len(votes) < v.quorum() {
		return
	}
	// Determine the new starting sequence from the votes.
	maxExec := v.lastExec
	proofs := make([][]byte, 0, len(votes))
	for _, enc := range votes {
		proofs = append(proofs, enc)
		if vm, err := DecodeMessage(enc); err == nil && vm.Seq > maxExec {
			maxExec = vm.Seq
		}
	}
	nv := Message{Type: MsgNewView, View: target, Seq: maxExec + 1, Proofs: proofs}
	v.enterView(target, maxExec+1)
	v.mu.Unlock()
	v.broadcast(v.signCopy(&nv))
	v.mu.Lock()
	v.proposePending()
}

func (v *Validator) onNewView(m *Message) {
	if m.View <= v.view || m.From != v.leaderOf(m.View) {
		return
	}
	// Verify 2f+1 distinct, validly signed view-change votes for this view.
	voters := make(map[string]bool)
	for _, enc := range m.Proofs {
		vm, err := DecodeMessage(enc)
		if err != nil || vm.Type != MsgViewChange || vm.View != m.View {
			continue
		}
		id, ok := v.cfg.Identities[vm.From]
		if !ok || v.evicted[vm.From] || !v.sigs.Verify(id, vm.SigningBytes(), vm.Signature) {
			continue
		}
		voters[vm.From] = true
	}
	if len(voters) < v.quorum() {
		return
	}
	v.enterView(m.View, m.Seq)
}

// enterView installs a new view. Caller holds mu.
func (v *Validator) enterView(view, startSeq uint64) {
	v.view = view
	v.viewChangeCount++
	v.vcTarget = 0
	// Discard unexecuted instances; their requests go back to pending.
	for seq, inst := range v.insts {
		if !inst.executed {
			delete(v.insts, seq)
			if inst.payload != nil && !v.delivered[inst.digest] {
				if req, ok := v.pending[inst.digest]; ok {
					req.inFlight = false
				} else {
					v.pending[inst.digest] = &request{payload: inst.payload, arrived: v.cfg.Clock.Now()}
				}
			}
		}
	}
	if startSeq > v.lastExec+1 {
		v.lastExec = startSeq - 1
	}
	// Restart proposals right after the agreed start: unexecuted instances
	// were discarded above, so their sequence numbers are reusable in this
	// view. Only ever raising nextSeq (as earlier revisions did) leaves
	// permanent gaps below new proposals, which maybeExecute can never cross.
	v.nextSeq = startSeq
	if v.nextSeq <= v.lastExec {
		v.nextSeq = v.lastExec + 1
	}
	// Give the new leader a fresh timeout for every pending request.
	now := v.cfg.Clock.Now()
	for _, req := range v.pending {
		req.arrived = now
		req.inFlight = false
	}
	delete(v.vcVotes, view)
	// Replay protocol messages that arrived for this view before we entered
	// it, and drop buffers for views now behind us.
	replay := v.future[view]
	for fv := range v.future {
		if fv <= view {
			delete(v.future, fv)
		}
	}
	for _, m := range replay {
		if v.view != view {
			break // a replayed message moved us onward; the rest are stale
		}
		if v.evicted[m.From] {
			continue // evicted after buffering; votes no longer count
		}
		switch m.Type {
		case MsgPrePrepare:
			v.onPrePrepare(m)
		case MsgPrepare:
			v.onPrepare(m)
		case MsgCommit:
			v.onCommit(m)
		}
	}
}

// evict flags a peer as byzantine and removes it from the effective
// validator pool, as the paper prescribes for validators that act against
// the consensus rules. Caller holds mu.
func (v *Validator) evict(id string) {
	if v.evicted[id] || id == v.cfg.ID {
		return
	}
	v.evicted[id] = true
	if v.cfg.OnEvict != nil {
		cb := v.cfg.OnEvict
		v.mu.Unlock()
		cb(id)
		v.mu.Lock()
	}
	// If the evicted peer leads the current view, move past it.
	if v.cfg.Validators[v.view%uint64(v.n)] == id || v.leaderOf(v.view) == id {
		v.voteViewChange(v.view + 1)
	}
}

// String describes the replica for logs.
func (v *Validator) String() string {
	return fmt.Sprintf("validator(%s view=%d exec=%d)", v.cfg.ID, v.View(), v.LastExecuted())
}
