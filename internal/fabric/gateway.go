package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/peer"
	"socialchain/internal/statedb"
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
// Among active endorsers it prefers the freshest peer (highest ledger
// height) so reads observe the client's own committed writes.
func (g *Gateway) Evaluate(ccName, fn string, args ...[]byte) ([]byte, error) {
	endorsers := g.be.activeEndorsers()
	if len(endorsers) == 0 {
		return nil, errors.New("fabric: no active endorsers")
	}
	p := endorsers[int(g.be.rrNext())%len(endorsers)]
	best := p.Height()
	for _, cand := range endorsers {
		if h := cand.Height(); h > best {
			best = h
			p = cand
		}
	}
	prop, err := peer.NewProposal(g.client, g.be.chName(), ccName, fn, args, g.be.now())
	if err != nil {
		return nil, err
	}
	g.be.clientDelay(p.ID())
	resp, err := p.Endorse(prop)
	g.be.clientDelay(p.ID())
	if err != nil {
		return nil, err
	}
	return resp.Response, nil
}

// mvccRetries bounds automatic resubmission after an MVCC invalidation.
// A transaction endorsed against peers that had not yet caught up on a
// recent block reads stale versions and is invalidated at commit; as in
// Fabric applications, the client re-endorses against fresh state and
// resubmits.
const mvccRetries = 4

// Submit runs the full transaction lifecycle: endorse on all active peers,
// assemble and sign the envelope, order through BFT consensus, and wait for
// commit. MVCC invalidations caused by stale endorsement state are retried
// with a fresh proposal; other invalidation flags are returned to the
// caller. The returned result may still carry an invalidation flag (e.g. a
// genuine concurrent-writer conflict that persists across retries).
func (g *Gateway) Submit(ccName, fn string, args ...[]byte) (*Result, error) {
	var res *Result
	for attempt := 0; ; attempt++ {
		tx, err := g.endorseAndAssemble(ccName, fn, args)
		if err != nil {
			return nil, err
		}
		res, err = g.SubmitEnvelope(*tx)
		if err != nil {
			return nil, err
		}
		if res.Flag != ledger.MVCCConflict || attempt >= mvccRetries {
			return res, nil
		}
		time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
	}
}

// endorseRetries bounds re-endorsement attempts when peers are momentarily
// out of sync (some have not yet committed a recent block) and split the
// endorsement set across digests.
const endorseRetries = 5

// endorseAndAssemble collects endorsements in parallel, groups them by
// result digest, and assembles a signed envelope from the largest agreeing
// group. If that group cannot satisfy the channel policy it retries after a
// short delay, letting lagging peers catch up.
func (g *Gateway) endorseAndAssemble(ccName, fn string, args [][]byte) (*ledger.Transaction, error) {
	start := time.Now()
	prop, err := peer.NewProposal(g.client, g.be.chName(), ccName, fn, args, g.be.now())
	if err != nil {
		return nil, err
	}
	payload := ledger.TxPayload{Chaincode: ccName, Fn: fn, ArgHashes: ledger.HashArgs(args)}
	return g.endorseRounds(start, prop.TxID, prop.Trace, prop.Timestamp, payload, func(p Endorser) (*peer.ProposalResponse, error) {
		return p.Endorse(prop)
	})
}

// endorseRounds runs endorsement rounds for one proposal, single or
// batched, until the largest agreeing group of a round satisfies the
// channel policy, and returns the envelope assembled from that group.
func (g *Gateway) endorseRounds(start time.Time, txID, trace string, ts time.Time, payload ledger.TxPayload, endorse func(Endorser) (*peer.ProposalResponse, error)) (*ledger.Transaction, error) {
	var lastErr error
	for attempt := 0; attempt < endorseRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
		}
		best, err := g.collectEndorsements(endorse)
		if err != nil {
			return nil, err
		}
		tx, err := assembleSignedEnvelope(g.client, txID, g.be.chName(), trace, payload, ts, best)
		if err != nil {
			return nil, err
		}
		// Pre-check the policy so a transient endorsement split triggers a
		// retry instead of a doomed submission.
		if lastErr = g.checkPolicy(tx, best); lastErr == nil {
			g.obsEndorse.Observe(time.Since(start))
			return tx, nil
		}
	}
	return nil, fmt.Errorf("fabric: endorsement policy unsatisfiable after %d attempts: %w", endorseRetries, lastErr)
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

// assembleSignedEnvelope builds and signs the transaction envelope from an
// agreeing endorsement group, carrying the proposal's trace ID into the
// envelope so peers can attribute commit-side spans to it.
func assembleSignedEnvelope(client *msp.Signer, txID, channelID, trace string, payload ledger.TxPayload, ts time.Time, group []*peer.ProposalResponse) (*ledger.Transaction, error) {
	rw, err := statedb.DecodeRWSet(group[0].RWSet)
	if err != nil {
		return nil, fmt.Errorf("fabric: decode rwset: %w", err)
	}
	tx := &ledger.Transaction{
		ID:        txID,
		ChannelID: channelID,
		Creator:   client.Identity,
		Payload:   payload,
		Response:  group[0].Response,
		RWSet:     rw,
		Events:    group[0].Events,
		Timestamp: ts,
		Trace:     trace,
	}
	for _, r := range group {
		tx.Endorsements = append(tx.Endorsements, r.Endorsement.Ref())
	}
	tx.Signature = client.Sign(tx.SigningBytes())
	return tx, nil
}

// SubmitEnvelope orders a pre-assembled transaction envelope and waits for
// commit. Exposed so tests can inject malformed envelopes. Ordering
// backpressure (ordering.ErrBacklog) and post-stop rejection
// (ordering.ErrStopped) surface as errors for the caller to react to.
func (g *Gateway) SubmitEnvelope(tx ledger.Transaction) (*Result, error) {
	entry, waiter, err := g.orderAsync(tx)
	if err != nil {
		return nil, err
	}

	waitStart := time.Now()
	select {
	case flag := <-waiter:
		g.obsCommitWait.Observe(time.Since(waitStart))
		res := &Result{TxID: tx.ID, Response: tx.Response, Flag: flag, Trace: tx.Trace}
		if blockNum, ok := entry.TxBlock(tx.ID); ok {
			res.BlockNum = blockNum
		}
		return res, nil
	case <-time.After(g.be.commitTimeout()):
		return nil, fmt.Errorf("%w: tx %s", ErrCommitTimeout, tx.ID)
	}
}

// orderAsync submits the envelope through a round-robin entry peer, which
// registers a commit waiter before ordering can reject (see
// Endorser.Order). An envelope the encoding cannot carry whole is refused
// here, before a remote entry peer would put it on the wire.
func (g *Gateway) orderAsync(tx ledger.Transaction) (Endorser, <-chan ledger.ValidationCode, error) {
	if err := tx.CheckFlat(); err != nil {
		return nil, nil, fmt.Errorf("fabric: order: %w", err)
	}
	entries := g.be.entryEndorsers()
	if len(entries) == 0 {
		return nil, nil, errors.New("fabric: no entry peers")
	}
	entry := entries[int(g.be.rrNext())%len(entries)]
	g.be.clientDelay(entry.ID())
	start := time.Now()
	waiter, err := entry.Order(tx)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: order tx %s: %w", tx.ID, err)
	}
	g.obsOrder.Observe(time.Since(start))
	return entry, waiter, nil
}

// SubmitAsync orders a transaction without waiting for commit; the caller
// can wait on the returned channel. Because it returns before commit, two
// SubmitAsync calls reading the same key race and MVCC validation will
// invalidate the loser.
func (g *Gateway) SubmitAsync(ccName, fn string, args ...[]byte) (string, <-chan ledger.ValidationCode, error) {
	tx, err := g.endorseAndAssemble(ccName, fn, args)
	if err != nil {
		return "", nil, err
	}
	_, waiter, err := g.orderAsync(*tx)
	if err != nil {
		return "", nil, err
	}
	return tx.ID, waiter, nil
}

// SubmitBatch runs the batched transaction lifecycle: every call executes
// on one simulator per endorsing peer (peer.EndorseBatch), the merged
// read/write set is signed once, and the whole batch orders and commits
// atomically as a single envelope. Call i's effects (e.g. the record a
// batched addData stores) live under sub-transaction ID
// chaincode.SubTxID(txID, i); Result.Response is the JSON array of
// per-call responses. MVCC invalidations from stale endorsement state are
// re-endorsed and resubmitted, as in Submit.
func (g *Gateway) SubmitBatch(calls []chaincode.BatchCall) (*Result, error) {
	var res *Result
	for attempt := 0; ; attempt++ {
		tx, err := g.endorseAndAssembleBatch(calls)
		if err != nil {
			return nil, err
		}
		res, err = g.SubmitEnvelope(*tx)
		if err != nil {
			return nil, err
		}
		if res.Flag != ledger.MVCCConflict || attempt >= mvccRetries {
			return res, nil
		}
		time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
	}
}

// endorseAndAssembleBatch is endorseAndAssemble for a batch proposal: it
// collects EndorseBatch responses from all active peers in parallel,
// groups them by result digest and assembles a signed batch envelope from
// the largest agreeing group, retrying while lagging peers catch up.
func (g *Gateway) endorseAndAssembleBatch(calls []chaincode.BatchCall) (*ledger.Transaction, error) {
	start := time.Now()
	prop, err := peer.NewBatchProposal(g.client, g.be.chName(), calls, g.be.now())
	if err != nil {
		return nil, err
	}
	payload := ledger.TxPayload{Batch: make([]ledger.TxPayload, len(calls))}
	for i, c := range calls {
		payload.Batch[i] = ledger.TxPayload{Chaincode: c.Chaincode, Fn: c.Fn, ArgHashes: ledger.HashArgs(c.Args)}
	}
	return g.endorseRounds(start, prop.TxID, prop.Trace, prop.Timestamp, payload, func(p Endorser) (*peer.ProposalResponse, error) {
		return p.EndorseBatch(prop)
	})
}

// collectEndorsements runs one parallel endorsement round over the active
// endorsers and returns the largest digest-agreeing response group. This
// is the one place that sees both the digest an endorser signed and the
// result it returned, so an endorser whose valid signature is over some
// other digest — which no lag behind the chain explains — is reported to
// the channel's watchdog here, and its response is left out.
func (g *Gateway) collectEndorsements(endorse func(Endorser) (*peer.ProposalResponse, error)) ([]*peer.ProposalResponse, error) {
	endorsers := g.be.activeEndorsers()
	if len(endorsers) == 0 {
		return nil, errors.New("fabric: no active endorsers")
	}
	type endorsement struct {
		resp *peer.ProposalResponse
		err  error
	}
	results := make([]endorsement, len(endorsers))
	var wg sync.WaitGroup
	for i, p := range endorsers {
		wg.Add(1)
		go func(i int, p Endorser) {
			defer wg.Done()
			g.be.clientDelay(p.ID())
			resp, err := endorse(p)
			g.be.clientDelay(p.ID())
			results[i] = endorsement{resp: resp, err: err}
		}(i, p)
	}
	wg.Wait()

	groups := make(map[string][]*peer.ProposalResponse)
	var errs []error
	for i, r := range results {
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		if e := r.resp.Endorsement; !bytes.Equal(e.Digest, statedb.DigestEncoded(r.resp.RWSet, r.resp.Response)) {
			if e.Verify() {
				g.be.report(endorsers[i].ID(), "endorsed mismatching digest")
			}
			errs = append(errs, fmt.Errorf("endorser %s: signed digest is not its result's", endorsers[i].ID()))
			continue
		}
		groups[string(r.resp.Endorsement.Digest)] = append(groups[string(r.resp.Endorsement.Digest)], r.resp)
	}
	var best []*peer.ProposalResponse
	for _, grp := range groups {
		if len(grp) > len(best) {
			best = grp
		}
	}
	if len(best) == 0 {
		if len(errs) > 0 {
			return nil, fmt.Errorf("fabric: all endorsements failed: %w", errs[0])
		}
		return nil, errors.New("fabric: no endorsements")
	}
	return best, nil
}
