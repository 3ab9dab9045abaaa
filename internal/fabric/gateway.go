package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/peer"
	"socialchain/internal/statedb"
	"socialchain/internal/transport"
)

// ErrCommitTimeout is returned when a submitted transaction does not commit
// within the configured window.
var ErrCommitTimeout = errors.New("fabric: commit timeout")

// Result reports the outcome of a submitted transaction.
type Result struct {
	TxID     string
	Response []byte
	Flag     ledger.ValidationCode
	BlockNum uint64
	// Trace is the lifecycle trace ID minted at proposal time and carried
	// through ordering and commit ("" on pre-trace envelopes).
	Trace string
}

// Err returns a non-nil error when the transaction was committed invalid.
func (r *Result) Err() error {
	if r.Flag == ledger.Valid {
		return nil
	}
	return fmt.Errorf("fabric: tx %s invalidated: %s", r.TxID, r.Flag)
}

// Gateway is the client SDK: it drives the endorse -> order -> commit
// lifecycle on behalf of one signing identity (the paper's "client") —
// every transaction it submits or evaluates runs against the channel's
// peers, ordering service and consensus group. The same Gateway serves an
// in-process channel and a remote one reached over the transport layer
// (RemoteChannel.Gateway); only the backend differs.
type Gateway struct {
	be     backend
	ch     *Channel // nil for gateways over a remote channel
	client *msp.Signer

	// Client-side lifecycle spans: wall time spent endorsing, handing the
	// envelope to ordering, and waiting for the commit notification. With
	// the peer-side spans (endorse_exec, consensus_decide, validate,
	// commit) they cover the paper's submit -> commit path end to end.
	obsEndorse    *obs.Histogram
	obsOrder      *obs.Histogram
	obsCommitWait *obs.Histogram
}

// newGateway wires a gateway over a backend, caching its stage histograms
// (dangling, cost-free instruments when the backend is uninstrumented).
func newGateway(be backend, ch *Channel, client *msp.Signer) *Gateway {
	reg := be.obsReg()
	const stageHelp = "Per-stage transaction pipeline latency."
	return &Gateway{
		be:            be,
		ch:            ch,
		client:        client,
		obsEndorse:    reg.Histogram("tx_stage_seconds", stageHelp, nil, obs.L("stage", "endorse")),
		obsOrder:      reg.Histogram("tx_stage_seconds", stageHelp, nil, obs.L("stage", "order")),
		obsCommitWait: reg.Histogram("tx_stage_seconds", stageHelp, nil, obs.L("stage", "commit_wait")),
	}
}

// Gateway creates a client bound to this channel.
func (ch *Channel) Gateway(client *msp.Signer) *Gateway {
	return newGateway(ch, ch, client)
}

// Client returns the gateway's signing identity.
func (g *Gateway) Client() msp.Identity { return g.client.Identity }

// Channel returns the in-process channel this gateway is scoped to, or nil
// when the gateway talks to a remote channel over the transport layer.
func (g *Gateway) Channel() *Channel { return g.ch }

// Evaluate executes a read-only query against a single peer and returns the
// chaincode response without ordering or committing anything, like Fabric's
// EvaluateTransaction. This is the paper's gas-free blockchain read path.
// The proposal carries the client's height as its MinHeight, so whichever
// peer serves it, the read observes the client's own committed writes. It
// goes to one active endorser, picked round robin, and moves to the next
// when that one cannot serve it: it is behind (ErrBehind) or does not
// answer. A chaincode error is the endorser's answer and returns at once,
// so a read of an absent key asks one peer, not each in turn.
func (g *Gateway) Evaluate(ccName, fn string, args ...[]byte) ([]byte, error) {
	endorsers := g.be.activeEndorsers()
	if len(endorsers) == 0 {
		return nil, errors.New("fabric: no active endorsers")
	}
	prop, err := peer.NewProposal(g.client, g.be.chName(), ccName, fn, args, g.be.now())
	if err != nil {
		return nil, err
	}
	prop.MinHeight = g.be.seen().load()
	first := int(g.be.rrNext())
	for i := range endorsers {
		p := endorsers[(first+i)%len(endorsers)]
		g.be.clientDelay(p.ID())
		var resp *peer.ProposalResponse
		resp, err = p.Endorse(prop)
		g.be.clientDelay(p.ID())
		if err == nil {
			return resp.Response, nil
		}
		if !errors.Is(err, ErrBehind) && !errors.Is(err, transport.ErrRPCTimeout) {
			return nil, err
		}
	}
	return nil, err
}

// Submit runs the full transaction lifecycle: endorse on the active peers
// until one digest group satisfies the channel policy, assemble and sign
// the envelope, order it through BFT consensus, and wait for commit. The
// proposal is endorsed at or above the client's height, so it reads the
// client's own writes; an MVCC flag on the result is a real conflict with
// another writer, and it is the caller's to handle.
func (g *Gateway) Submit(ccName, fn string, args ...[]byte) (*Result, error) {
	tx, err := g.endorseAndAssemble(&peer.Proposal{Chaincode: ccName, Fn: fn, Args: args})
	if err != nil {
		return nil, err
	}
	return g.SubmitEnvelope(*tx)
}

// endorseRetries bounds the endorsement rounds of one proposal. A round
// falls short (errNoQuorum) when its peers simulated at different heights
// — another client's block landed between them — and split across digests.
const endorseRetries = 5

var errNoQuorum = errors.New("no digest group satisfies the policy")

// endorseAndAssemble signs prop, a single or a batch proposal, for the
// gateway's channel and client, runs endorsement rounds for it until a
// digest group satisfies the channel policy, and returns the envelope
// assembled from that group. Each round asks for the client's height. A
// round that falls short asks again at once: its endorsers have had the
// round's time to commit the block that split them.
func (g *Gateway) endorseAndAssemble(prop *peer.Proposal) (*ledger.Transaction, error) {
	start := time.Now()
	prop.ChannelID, prop.Timestamp = g.be.chName(), g.be.now()
	payload, err := prop.Sign(g.client)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for round := 0; round < endorseRetries; round++ {
		at := *prop
		at.MinHeight = g.be.seen().load()
		group, err := g.collectEndorsements(&at)
		if errors.Is(err, errNoQuorum) {
			lastErr = err
			continue
		}
		if err != nil {
			return nil, err
		}
		tx, err := assembleSignedEnvelope(g.client, prop, payload, group)
		if err != nil {
			return nil, err
		}
		// Every signature in the group was checked as it arrived; check
		// the envelope the way a validator will before it is ordered.
		if lastErr = g.checkPolicy(tx, group); lastErr == nil {
			g.obsEndorse.Observe(time.Since(start))
			return tx, nil
		}
	}
	return nil, fmt.Errorf("fabric: endorsement policy unsatisfiable after %d rounds: %w", endorseRetries, lastErr)
}

// checkPolicy evaluates the channel policy over tx's endorsements the way
// a validator will: each must be a channel member's signature over the
// digest of the envelope's own read/write set and response. A gateway over
// a remote channel has no membership list (it would take the deployment's
// identity seed, which is the peers' private keys), so it takes the peers
// it dialed at their word: the members are whoever answered in group.
func (g *Gateway) checkPolicy(tx *ledger.Transaction, group []*peer.ProposalResponse) error {
	members := g.be.chMembers()
	if members == nil {
		ids := make([]msp.Identity, len(group))
		for i, r := range group {
			ids[i] = r.Endorsement.Endorser
		}
		var err error
		if members, err = msp.NewRegistry(ids...); err != nil {
			return err
		}
	}
	return g.be.chPolicy().Evaluate(members.Endorsers(tx.Digest(), tx.Endorsements))
}

// assembleSignedEnvelope builds and signs the transaction envelope for
// prop, which recorded payload, from an agreeing endorsement group,
// carrying the proposal's trace ID into the envelope so peers can
// attribute commit-side spans to it.
func assembleSignedEnvelope(client *msp.Signer, prop *peer.Proposal, payload ledger.TxPayload, group []*peer.ProposalResponse) (*ledger.Transaction, error) {
	rw, err := statedb.DecodeRWSet(group[0].RWSet)
	if err != nil {
		return nil, fmt.Errorf("fabric: decode rwset: %w", err)
	}
	tx := &ledger.Transaction{
		ID:        prop.TxID,
		Creator:   client.Identity,
		Payload:   payload,
		Response:  group[0].Response,
		RWSet:     rw,
		Timestamp: prop.Timestamp,
		Trace:     prop.Trace,
	}
	for _, r := range group {
		tx.Endorsements = append(tx.Endorsements, r.Endorsement.Ref())
	}
	tx.Signature = client.Sign(tx.SigningBytes())
	return tx, nil
}

// SubmitEnvelope orders a pre-assembled transaction envelope and waits for
// commit. Exposed so tests can inject malformed envelopes. An envelope the
// encoding cannot carry whole is refused before a remote entry peer would
// put it on the wire. The round-robin entry peer registers a commit waiter
// before ordering can reject (see Endorser.Order); ordering backpressure
// (ordering.ErrBacklog) and post-stop rejection (ordering.ErrStopped)
// surface as errors for the caller to react to. The wait is bounded by the
// commit timeout, and the block the envelope landed in, valid or not,
// raises the backend's height, which every later proposal over it carries.
func (g *Gateway) SubmitEnvelope(tx ledger.Transaction) (*Result, error) {
	if err := tx.CheckFlat(); err != nil {
		return nil, fmt.Errorf("fabric: order: %w", err)
	}
	entries := g.be.entryEndorsers()
	if len(entries) == 0 {
		return nil, errors.New("fabric: no entry peers")
	}
	entry := entries[int(g.be.rrNext())%len(entries)]
	g.be.clientDelay(entry.ID())
	start := time.Now()
	waiter, err := entry.Order(tx)
	if err != nil {
		return nil, fmt.Errorf("fabric: order tx %s: %w", tx.ID, err)
	}
	g.obsOrder.Observe(time.Since(start))
	waitStart := time.Now()
	select {
	case flag := <-waiter:
		g.obsCommitWait.Observe(time.Since(waitStart))
		res := &Result{TxID: tx.ID, Response: tx.Response, Flag: flag, Trace: tx.Trace}
		if blockNum, ok := entry.TxBlock(tx.ID); ok {
			res.BlockNum = blockNum
			g.be.seen().raise(blockNum + 1)
		}
		return res, nil
	case <-g.be.after(g.be.commitTimeout()):
		return nil, fmt.Errorf("%w: tx %s", ErrCommitTimeout, tx.ID)
	}
}

// SubmitBatch runs the batched transaction lifecycle: every call executes
// on one simulator per endorsing peer (a batch proposal, see
// peer.Proposal), the merged read/write set is signed once, and the whole
// batch orders and commits atomically as a single envelope. Call i's
// effects (e.g. the record a batched addData stores) live under
// sub-transaction ID chaincode.SubTxID(txID, i); Result.Response is the
// JSON array of per-call responses. An MVCC flag is a real conflict, as
// in Submit.
func (g *Gateway) SubmitBatch(calls []chaincode.BatchCall) (*Result, error) {
	tx, err := g.endorseAndAssemble(&peer.Proposal{Batch: calls})
	if err != nil {
		return nil, err
	}
	return g.SubmitEnvelope(*tx)
}

// collectEndorsements runs one endorsement round of prop, at its
// MinHeight, over the active endorsers in parallel. It returns as soon as
// one digest group satisfies the channel policy, so a lagging peer does
// not gate the round. A group counts each identity once. If every endorser has answered and no
// group qualifies, it returns errNoQuorum.
//
// Each endorser's goroutine admits its own response (admit), so a response
// counts toward a group only once its signature is known to be a member's
// over the result it returned: the group that satisfies the policy here is
// the group a validator will count.
func (g *Gateway) collectEndorsements(prop *peer.Proposal) ([]*peer.ProposalResponse, error) {
	endorsers := g.be.activeEndorsers()
	if len(endorsers) == 0 {
		return nil, errors.New("fabric: no active endorsers")
	}
	type endorsement struct {
		resp *peer.ProposalResponse
		err  error
	}
	members := g.be.chMembers()
	// Buffered for every endorser: the ones still answering when the
	// round returns never block.
	results := make(chan endorsement, len(endorsers))
	for _, p := range endorsers {
		go func(p Endorser) {
			g.be.clientDelay(p.ID())
			resp, err := p.Endorse(prop)
			g.be.clientDelay(p.ID())
			if err == nil {
				err = g.admit(p, resp, members)
			}
			results <- endorsement{resp: resp, err: err}
		}(p)
	}

	policy := g.be.chPolicy()
	groups := make(map[string][]*peer.ProposalResponse)
	var firstErr error
	answered := 0
	for range endorsers {
		r := <-results
		if r.err != nil {
			// A peer that is behind refused without simulating; report
			// an answer, such as the chaincode's error, over that refusal.
			if firstErr == nil || errors.Is(firstErr, ErrBehind) {
				firstErr = r.err
			}
			continue
		}
		answered++
		signer := r.resp.Endorsement.Endorser
		digest := string(r.resp.Endorsement.Digest)
		group := groups[digest]
		if slices.ContainsFunc(group, func(o *peer.ProposalResponse) bool { return o.Endorsement.Endorser.PubKey.Equal(signer.PubKey) }) {
			continue
		}
		group = append(group, r.resp)
		groups[digest] = group
		ids := make([]msp.Identity, len(group))
		for i, resp := range group {
			ids[i] = resp.Endorsement.Endorser
		}
		if policy.Evaluate(ids) == nil {
			return group, nil
		}
	}
	if answered == 0 {
		return nil, fmt.Errorf("fabric: all endorsements failed: %w", firstErr)
	}
	return nil, fmt.Errorf("%w (%d of %d endorsers answered)", errNoQuorum, answered, len(endorsers))
}

// admit checks endorser p's response before it may count toward a digest
// group: the signature must verify, over the digest of the result p
// returned, under a channel member's key (members is nil over a remote
// channel, which takes its peers at their word; see checkPolicy). This is
// the one place that sees both the digest an endorser signed and the
// result it returned, so an endorser whose valid signature is over some
// other digest — which no lag behind the chain explains — is reported to
// the channel's watchdog here, even when it answers after the round has
// returned.
func (g *Gateway) admit(p Endorser, resp *peer.ProposalResponse, members *msp.Registry) error {
	e := resp.Endorsement
	if !g.be.verifier().Verify(e.Endorser, e.Digest, e.Signature) {
		return fmt.Errorf("endorser %s: endorsement signature does not verify", p.ID())
	}
	if !bytes.Equal(e.Digest, statedb.DigestEncoded(resp.RWSet, resp.Response)) {
		g.be.report(p.ID(), "endorsed mismatching digest")
		return fmt.Errorf("endorser %s: signed digest is not its result's", p.ID())
	}
	if members != nil {
		if m, ok := members.Resolve(e.Endorser.Fingerprint()); !ok || !m.PubKey.Equal(e.Endorser.PubKey) {
			return fmt.Errorf("endorser %s: signer %s is not a channel member", p.ID(), e.Endorser.ID())
		}
	}
	return nil
}
