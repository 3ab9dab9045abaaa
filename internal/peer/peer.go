package peer

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/ledger"
	"socialchain/internal/metrics"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/statedb"
	"socialchain/internal/storage"
)

// Peer is one endorsing/committing node. Every peer holds a full copy of
// the ledger and world state and independently validates every block, as in
// the paper's Figure 1 where all endorsement peers act as validators.
//
// Every peer keeps its chain the same way: every committed block lands in
// a block log before its one state batch, the log is the state engine's
// write-ahead log (each flush fsyncs it first), and the ledger is a view
// over it (ledger.Open) instead of a copy of it. A peer opened with
// Config.DataDir is durable: the directory holds the block log
// (blocks.wal) and one persist engine (db/) carrying the world state with
// its indexes, block index and savepoint. Reopening the same directory
// recovers the peer — only the blocks the log holds above the state's
// savepoint are decoded, and they replay through the same
// validate-then-commit split a live delivery takes (see recover) — after
// which SyncFrom catches up any tail the log missed. Without a DataDir the
// log is an unlinked temporary file, gone when the peer closes.
type Peer struct {
	id        string
	channelID string
	signer    *msp.Signer

	ledger   *ledger.Ledger // over DataDir/blocks.wal, or an unlinked temporary log without a DataDir
	state    *statedb.DB
	registry *chaincode.Registry
	policy   msp.QuorumPolicy
	members  *msp.Registry // whose endorsements the policy counts

	// sigs checks and counts every signature this peer meets; signs
	// counts the endorsements it signs (respond).
	sigs  msp.Verifier
	signs atomic.Int64

	// commitMu serialises the commit pipeline (block log → state batch →
	// visible chain) so the durable artefacts can never record two
	// competing blocks at one height.
	commitMu sync.Mutex

	mu          sync.Mutex
	commitWait  map[string][]chan ledger.ValidationCode
	subscribers []chan chaincode.Event
	committed   chan struct{} // closed and replaced at every block commit

	// Observability instruments (always non-nil: a nil Config.Obs hands
	// back dangling atomics, so the hot path never branches).
	obsEndorse  *obs.Histogram // endorse_exec: simulate + sign one proposal
	obsValidate *obs.Histogram // validate: the validation half of a block
	obsCommit   *obs.Histogram // commit: the durable half of a block
	obsE2E      *obs.Histogram // submission timestamp -> commit, per tx
	txValid     *metrics.Counter
	txInvalid   *metrics.Counter
	blocks      *metrics.Counter
	slowTraces  *obs.TraceRing // nil unless the node wires a ring
	openTook    time.Duration  // how long New took; set before New returns
}

// Config assembles a peer.
type Config struct {
	ID        string
	ChannelID string
	Signer    *msp.Signer
	// Registry is the deployed chaincode set (shared across peers —
	// chaincode instances are stateless; all state flows through the stub).
	Registry *chaincode.Registry
	// Policy validates endorsements at commit; a zero threshold is refused
	// (the network assembly always supplies one).
	Policy msp.QuorumPolicy
	// Identities is the channel's membership: a committed envelope names
	// its endorsers by key fingerprint, and only a fingerprint that
	// resolves here is handed to Policy. Every process of a deployment
	// passes the same set. With nil no endorsement counts, which is enough
	// to open a cleanly closed directory and serve reads from it.
	Identities *msp.Registry
	// State sizes the storage engine backing this peer's world state,
	// which also holds its indexes (zero value = the defaults, on a
	// temporary directory the peer's Close removes).
	State storage.Config
	// DataDir, when non-empty, makes the peer durable: it puts the state
	// engine at DataDir/db and opens the block log at DataDir/blocks.wal,
	// recovering whatever a previous run left there. Overrides State.Dir.
	DataDir string
	// Indexes declares the secondary indexes the world state maintains
	// (nil = none). Index reads feed endorsement results, so every peer
	// of a channel must run the same list.
	Indexes []statedb.IndexSpec
	// Obs receives this peer's metrics: per-stage latency histograms,
	// commit counters, chain height and signature-check counts. nil keeps
	// the peer fully functional with unregistered (dangling) instruments.
	Obs *obs.Registry
	// SlowTraces, when non-nil, retains recent slow commits (trace ID +
	// stage timings) for the /statusz ring.
	SlowTraces *obs.TraceRing
}

// New creates a peer anchored by a genesis block — or, when cfg.DataDir
// names a directory with a previous run's data, recovers that peer.
func New(cfg Config) (*Peer, error) {
	opened := time.Now()
	if cfg.Policy.Threshold <= 0 {
		return nil, fmt.Errorf("peer %s: endorsement policy %+v counts no endorsement", cfg.ID, cfg.Policy)
	}
	st := cfg.State
	var logPath string // "": an unlinked temporary block log
	if cfg.DataDir != "" {
		st.Dir = cfg.DataDir
		logPath = filepath.Join(cfg.DataDir, "blocks.wal")
	}
	// The block log is the state engine's front log. Before it opens only
	// BuildIndexes' rebuild writes, and open recomputes that.
	var front atomic.Pointer[ledger.Ledger]
	st.SyncFront = func() error {
		if l := front.Load(); l != nil {
			return l.Sync()
		}
		return nil
	}
	state, err := statedb.NewIndexedWith(st, cfg.Indexes...)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", cfg.ID, err)
	}
	chain, err := ledger.Open(logPath, state)
	if err != nil {
		state.Close()
		return nil, fmt.Errorf("peer %s: %w", cfg.ID, err)
	}
	front.Store(chain)
	p := &Peer{
		id:         cfg.ID,
		channelID:  cfg.ChannelID,
		signer:     cfg.Signer,
		ledger:     chain,
		state:      state,
		registry:   cfg.Registry,
		policy:     cfg.Policy,
		members:    cfg.Identities,
		commitWait: make(map[string][]chan ledger.ValidationCode),
		committed:  make(chan struct{}),
		slowTraces: cfg.SlowTraces,
	}
	const stageHelp = "Per-stage transaction pipeline latency."
	p.obsEndorse = cfg.Obs.Histogram("tx_stage_seconds", stageHelp, nil, obs.L("stage", "endorse_exec"))
	p.obsValidate = cfg.Obs.Histogram("tx_stage_seconds", stageHelp, nil, obs.L("stage", "validate"))
	p.obsCommit = cfg.Obs.Histogram("tx_stage_seconds", stageHelp, nil, obs.L("stage", "commit"))
	p.obsE2E = cfg.Obs.Histogram("tx_commit_e2e_seconds", "Submission timestamp to commit, per transaction.", nil)
	p.txValid = cfg.Obs.Counter("peer_txs_committed_total", "Transactions committed VALID.")
	p.txInvalid = cfg.Obs.Counter("peer_txs_invalid_total", "Transactions committed with a non-VALID flag.")
	p.blocks = cfg.Obs.Counter("peer_blocks_committed_total", "Blocks committed on the live path.")
	cfg.Obs.GaugeFunc("chain_height", "Current chain height (blocks).", func() float64 {
		return float64(p.ledger.Height())
	})
	// component distinguishes these counts from the consensus replica's,
	// which registers the same families on the same node-scoped registry.
	sigReg := cfg.Obs.With(obs.L("component", "peer"))
	p.sigs.Register(sigReg)
	sigReg.CounterFunc("signatures_made_total", "Endorsements signed: one per proposal simulated.", p.signs.Load)
	// LSM engine internals (sstables, compaction backlog, bloom hit
	// rates) of the peer's one state engine.
	p.state.RegisterStorage(cfg.Obs)
	cfg.Obs.CounterFunc("ledger_block_cache_hits_total", "Block lookups served from the ledger's block cache.", func() int64 {
		return p.ledger.IOStats().CacheHits
	})
	cfg.Obs.CounterFunc("ledger_block_cache_misses_total", "Block lookups that read the block file.", func() int64 {
		return p.ledger.IOStats().CacheMisses
	})
	cfg.Obs.CounterFunc("ledger_block_reads_total", "Blocks decoded from the block file since open (lookups and scans).", func() int64 {
		return p.ledger.IOStats().BlockReads
	})
	cfg.Obs.GaugeFunc("ledger_open_blocks_decoded", "Blocks the last open decoded: those logged above the state savepoint.", func() float64 {
		return float64(p.ledger.IOStats().OpenDecoded)
	})
	if err := p.recover(); err != nil {
		p.Close()
		return nil, err
	}
	if p.ledger.Height() == 0 {
		// The genesis block is identical on every peer: fixed zero
		// timestamp (the header hash covers only number, prev-hash and
		// data hash, so the chain stays consistent regardless). It writes
		// no state, so its index entries have no batch to ride and are
		// dropped: block 0 is the file's first frame.
		genesis := ledger.NewBlock(0, [32]byte{}, nil, time.Time{})
		_, err := p.ledger.Stage(genesis)
		if err == nil {
			err = p.ledger.Append(genesis)
		}
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("peer %s: genesis: %w", cfg.ID, err)
		}
	}
	p.openTook = time.Since(opened)
	cfg.Obs.GaugeFunc("peer_open_seconds", "Time the peer took to open, recovery included.", p.openTook.Seconds)
	return p, nil
}

// Open opens (or creates) a durable peer rooted at cfg.DataDir. It is
// New with the data directory required: use it where resuming from disk
// is the point, so a missing directory configuration fails loudly instead
// of silently building a peer that keeps nothing across restarts.
func Open(cfg Config) (*Peer, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("peer %s: Open requires Config.DataDir", cfg.ID)
	}
	return New(cfg)
}

// recover re-commits the blocks the ledger found in the block log above
// the world state's savepoint: committed to the log but not yet to state
// when the process died. Blocks at or below the savepoint already have
// their writes, index entries and chain record applied — all
// of it rides one atomic state batch — so the ledger neither reads nor
// decodes them. Each tail block re-runs the full validate-then-commit
// split, with recorded flags cross-checked against re-validation, which
// also re-derives those entries. A peer without a DataDir has no tail.
func (p *Peer) recover() error {
	for _, b := range p.ledger.Tail() {
		if err := p.replayLoggedBlock(b); err != nil {
			return fmt.Errorf("peer %s: recover block %d: %w", p.id, b.Header.Number, err)
		}
	}
	return nil
}

// Close flushes and closes the peer's state engine first, whose checkpoint
// syncs the block log, then the log; the peer's reads fail after it.
// Idempotent per underlying store.
func (p *Peer) Close() error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	err := p.state.Close()
	if lerr := p.ledger.Close(); err == nil {
		err = lerr
	}
	return err
}

// ID returns the peer's name.
func (p *Peer) ID() string { return p.id }

// Identity returns the peer's signing identity.
func (p *Peer) Identity() msp.Identity { return p.signer.Identity }

// Ledger exposes the peer's chain.
func (p *Peer) Ledger() *ledger.Ledger { return p.ledger }

// State exposes the peer's world state.
func (p *Peer) State() *statedb.DB { return p.state }

// History stands in for the history database a peer no longer keeps: a
// record's provenance is the chain and its PrevTxID links.
type History struct{}

// StorageStats reports ok=false: no engine stands behind History.
func (History) StorageStats() (storage.PersistStats, bool) {
	return storage.PersistStats{}, false
}

// History is kept only because the benchmark harness reads its
// StorageStats. It goes with ROADMAP item 4(a), which moves the harness
// off it.
func (p *Peer) History() History { return History{} }

// OpenTook reports how long New took to assemble the peer, recovery
// included.
func (p *Peer) OpenTook() time.Duration { return p.openTook }

// VerifyCacheStats reports the peer's signature checks: skipped ones were
// answered without running ed25519 (a tuple repeated within one block's
// batch), verified ones ran it. Nothing is cached; the name is kept for its
// callers, which read the skipped share as the hit ratio.
func (p *Peer) VerifyCacheStats() (skipped, verified int64) {
	return p.sigs.Stats()
}

// Endorse simulates a proposal against this peer's current state and signs
// the resulting read/write set, implementing the paper's "each peer
// executes the smart contract independently". A batch proposal's calls
// execute on one simulator (chaincode.InvokeBatch), yielding one merged
// read/write set that the peer signs once, so one endorsement round-trip
// and one signature cover an entire ingest batch; its response is the JSON
// array of per-call responses.
func (p *Peer) Endorse(prop *Proposal) (*ProposalResponse, error) {
	if err := prop.check(); err != nil {
		return nil, fmt.Errorf("peer %s: %w", p.id, err)
	}
	if !p.sigs.Verify(prop.Creator, prop.SigningBytes(), prop.Signature) {
		return nil, fmt.Errorf("peer %s: proposal %s: bad client signature", p.id, prop.TxID)
	}
	ccName := prop.Chaincode
	if len(prop.Batch) > 0 {
		ccName = prop.Batch[0].Chaincode
	}
	sim := chaincode.NewSimulator(chaincode.TxContext{
		TxID:      prop.TxID,
		ChannelID: prop.ChannelID,
		Creator:   prop.Creator,
		Timestamp: prop.Timestamp,
	}, ccName, p.state).WithRegistry(p.registry)
	start := time.Now()
	var resp []byte
	if len(prop.Batch) > 0 {
		responses, err := sim.InvokeBatch(prop.Batch)
		if err != nil {
			return nil, fmt.Errorf("peer %s: %w", p.id, err)
		}
		if resp, err = json.Marshal(responses); err != nil {
			return nil, fmt.Errorf("peer %s: marshal batch responses: %w", p.id, err)
		}
	} else {
		cc, ok := p.registry.Get(prop.Chaincode)
		if !ok {
			return nil, fmt.Errorf("peer %s: unknown chaincode %q", p.id, prop.Chaincode)
		}
		var err error
		if resp, err = cc.Invoke(sim, prop.Fn, prop.Args); err != nil {
			return nil, fmt.Errorf("peer %s: chaincode %s.%s: %w", p.id, prop.Chaincode, prop.Fn, err)
		}
	}
	p.obsEndorse.Observe(time.Since(start))
	return p.respond(prop.TxID, sim, resp)
}

// respond signs a finished simulation into a proposal response.
func (p *Peer) respond(txID string, sim *chaincode.Simulator, resp []byte) (*ProposalResponse, error) {
	rw := sim.RWSet()
	digest := rw.Digest(resp)
	var events []ledger.Event
	for _, e := range sim.Events() {
		events = append(events, ledger.Event{Name: e.Name, Payload: e.Payload})
	}
	p.signs.Add(1)
	return &ProposalResponse{
		TxID:     txID,
		Response: resp,
		RWSet:    rw.Bytes(),
		Events:   events,
		Endorsement: msp.Endorsement{
			Endorser:  p.signer.Identity,
			Digest:    digest,
			Signature: p.signer.Sign(digest),
		},
	}, nil
}

// WaitForCommit returns a channel that receives the validation flag when
// txID commits on this peer. The channel is buffered; the caller need not
// drain it before the commit happens.
func (p *Peer) WaitForCommit(txID string) <-chan ledger.ValidationCode {
	ch := make(chan ledger.ValidationCode, 1)
	p.mu.Lock()
	p.commitWait[txID] = append(p.commitWait[txID], ch)
	p.mu.Unlock()
	return ch
}

// CancelWait drops the commit waiters registered for txID — callers whose
// submission was rejected by ordering deregister here so abandoned
// transaction IDs do not accumulate in the wait map.
func (p *Peer) CancelWait(txID string) {
	p.mu.Lock()
	delete(p.commitWait, txID)
	p.mu.Unlock()
}

// Committed returns a channel closed when the next block commits on this
// peer. Take it before reading Height: a commit between the two then
// still closes the channel in hand.
func (p *Peer) Committed() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.committed
}

// SubscribeEvents returns a channel receiving chaincode events of valid
// committed transactions.
func (p *Peer) SubscribeEvents(buffer int) <-chan chaincode.Event {
	if buffer <= 0 {
		buffer = 256
	}
	ch := make(chan chaincode.Event, buffer)
	p.mu.Lock()
	p.subscribers = append(p.subscribers, ch)
	p.mu.Unlock()
	return ch
}

// CommitBatch validates and commits one ordered batch of transactions as
// the next block, in Fabric's validate-then-commit split. The stateless
// checks (client signature, endorsement signatures, policy) verify every
// signature of the block in one parallel batch; the MVCC read-version pass
// then runs serially in block order — read/write-set conflict detection is
// what keeps the block serializable — and all surviving write sets land in
// the state engine as one block-level batch. It returns the block.
//
// The block timestamp is derived from the batch (the latest transaction
// timestamp), not from the committing peer's clock: every replica
// committing the same ordered batch assembles a byte-identical block, so
// independently running processes converge on one chain, not merely on
// equivalent chains.
//
// A batch this peer already holds — every transaction on its chain, because
// SyncFrom copied the block from a faster replica while consensus was
// still delivering it here — is not committed a second time: that would
// put this replica one block ahead of the others for good. The block it
// landed in is returned instead.
func (p *Peer) CommitBatch(txs []ledger.Transaction) (*ledger.Block, error) {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	if at, ok := p.alreadyCommitted(txs); ok {
		return p.ledger.GetBlock(at)
	}
	number := p.ledger.Height()
	block := ledger.NewBlock(number, p.ledger.TipHash(), txs, batchTimestamp(txs))
	vStart := time.Now()
	flags, updates, err := p.validateBlock(number, block.Txs, nil)
	if err != nil {
		return nil, err
	}
	vDur := time.Since(vStart)
	p.obsValidate.Observe(vDur)
	copy(block.Metadata.Flags, flags)
	cStart := time.Now()
	if err := p.commitValidated(block, updates); err != nil {
		return nil, err
	}
	cDur := time.Since(cStart)
	p.obsCommit.Observe(cDur)
	p.blocks.Inc()
	committedAt := time.Now()
	for i := range block.Txs {
		tx := &block.Txs[i]
		if flags[i] == ledger.Valid {
			p.txValid.Inc()
		} else {
			p.txInvalid.Inc()
		}
		e2e := committedAt.Sub(tx.Timestamp)
		p.obsE2E.Observe(e2e)
		if tx.Trace != "" {
			p.slowTraces.Observe(obs.TraceRecord{
				Trace: tx.Trace, TxID: tx.ID, Channel: p.channelID, Block: number,
				E2E: e2e, Validate: vDur, Commit: cDur,
			})
		}
	}
	return block, nil
}

// alreadyCommitted reports whether every transaction of a non-empty batch
// is on the chain, and in which block the first one is. A fresh batch
// answers after one index miss.
func (p *Peer) alreadyCommitted(txs []ledger.Transaction) (block uint64, ok bool) {
	for i := range txs {
		at, _, _, found := p.ledger.TxLocation(txs[i].ID)
		if !found {
			return 0, false
		}
		if i == 0 {
			block = at
		}
	}
	return block, len(txs) > 0
}

// batchTimestamp returns the latest client timestamp in the batch — a
// value every committer derives identically from the ordered payload.
func batchTimestamp(txs []ledger.Transaction) time.Time {
	var ts time.Time
	for i := range txs {
		if txs[i].Timestamp.After(ts) {
			ts = txs[i].Timestamp
		}
	}
	return ts
}

// validateBlock runs the validation half of the validate-then-commit
// split over one block's transactions, WITHOUT touching state:
//
//  1. Stateless checks (signatures, policy), all signatures in one batch.
//  2. MVCC runs serially in block order against committed state plus the
//     in-block write set. Nothing mutates until every transaction is
//     flagged, so each check observes pre-block versions — identical to
//     a serial validate-and-apply interleaving, because a read of any
//     key an earlier in-block transaction wrote is already a conflict.
//     After each transaction is flagged, check (when non-nil) may abort
//     the whole block before any state changes — the sync and recovery
//     paths' flag-mismatch rejection.
//
// It returns the per-transaction flags plus the surviving write sets, each
// versioned by the position of the transaction that produced it, for
// commitValidated to land.
func (p *Peer) validateBlock(number uint64, txs []ledger.Transaction, check func(i int, flag ledger.ValidationCode) error) ([]ledger.ValidationCode, []statedb.TxUpdate, error) {
	pre := p.validateStatelessAll(txs)
	flags := make([]ledger.ValidationCode, len(txs))
	blockWrites := make(map[string]bool) // ns\x00key written by earlier valid tx
	updates := make([]statedb.TxUpdate, 0, len(txs))
	for i := range txs {
		tx := &txs[i]
		flag := pre[i]
		if flag == ledger.Valid {
			flag = p.validateMVCC(tx, blockWrites)
		}
		if check != nil {
			if err := check(i, flag); err != nil {
				return nil, nil, err
			}
		}
		flags[i] = flag
		if flag != ledger.Valid {
			continue
		}
		batch := statedb.NewUpdateBatch()
		batch.AddRWSetWrites(tx.RWSet)
		updates = append(updates, statedb.TxUpdate{
			Batch:   batch,
			Version: statedb.Version{BlockNum: number, TxNum: uint64(i)},
		})
		for _, w := range tx.RWSet.Writes {
			blockWrites[w.Namespace+"\x00"+w.Key] = true
		}
	}
	return flags, updates, nil
}

// commitValidated lands a fully-validated block — the whole commit
// protocol is these three steps:
//
//  1. ledger.Stage: the structural chain check — a malformed block must
//     never reach the durable log — then the block log append (skipped
//     for a block recovery is replaying from that log; fsynced under
//     durability always). From this point the block is
//     committed: if the process dies before the state engine flushes
//     step 2, recovery replays it from the log.
//  2. One state-engine batch (statedb.ApplyBlockAt) carrying every
//     surviving write set with its index entries, the ledger's block
//     index and chain record, and the
//     savepoint — always in one table on the persist engine, which is
//     what makes recovery's "replay strictly after the savepoint" exact.
//  3. ledger.Append + waiter/subscriber notification. The visible height
//     only advances after state is applied, so observers that wait on
//     height never read pre-block state.
//
// Caller holds commitMu.
func (p *Peer) commitValidated(block *ledger.Block, updates []statedb.TxUpdate) error {
	number := block.Header.Number
	index, err := p.ledger.Stage(block)
	if err != nil {
		return fmt.Errorf("peer %s: commit block %d: %w", p.id, number, err)
	}
	p.state.ApplyBlockAt(updates, number, index...)
	if err := p.ledger.Append(block); err != nil {
		return fmt.Errorf("peer %s: append block %d: %w", p.id, number, err)
	}
	p.notify(block)
	return nil
}

// replayLoggedBlock re-commits one block read back from the block log,
// re-validating everything and requiring the recorded flags to match —
// recovery must never trust what validation can recompute. The log's read
// already refused a block whose flags do not pair with its transactions.
func (p *Peer) replayLoggedBlock(b *ledger.Block) error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	number := p.ledger.Height()
	if b.Header.Number != number {
		return fmt.Errorf("replay gap: got block %d at height %d", b.Header.Number, number)
	}
	_, updates, err := p.validateBlock(number, b.Txs, func(i int, flag ledger.ValidationCode) error {
		if flag != b.Metadata.Flags[i] {
			return fmt.Errorf("%w: block %d tx %d: local %s vs recorded %s",
				ErrFlagMismatch, b.Header.Number, i, flag, b.Metadata.Flags[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	return p.commitValidated(b, updates)
}

// validateStatelessAll applies the commit-time checks that need no world
// state to every transaction of a block, in Fabric's order:
//
//  1. The client envelope signature, which covers the digest, the ID and
//     the recorded invocation.
//  2. The endorsement policy, over the channel members whose signatures
//     cover the digest just computed from the envelope's own read/write set
//     and response: the envelope carries no digest to take on trust and no
//     identity to take at its word.
//
// Every signature the block carries is checked in one batch — a tuple that
// repeats is verified once, the rest across cores — and each transaction's
// flag is read off its own slice of the verdicts.
func (p *Peer) validateStatelessAll(txs []ledger.Transaction) []ledger.ValidationCode {
	items := make([]msp.VerifyItem, 0, 5*len(txs))
	bounds := make([]int, len(txs)+1) // tx i's checks: items[bounds[i]:bounds[i+1]], creator first
	for i := range txs {
		tx := &txs[i]
		digest := tx.Digest()
		bounds[i] = len(items)
		items = append(items, msp.VerifyItem{Identity: tx.Creator, Message: tx.SigningBytesFor(digest), Signature: tx.Signature})
		items = p.members.EndorsementChecks(items, digest, tx.Endorsements)
	}
	bounds[len(txs)] = len(items)
	ok := p.sigs.VerifyBatchEach(items)
	flags := make([]ledger.ValidationCode, len(txs))
	for i := range txs {
		lo, hi := bounds[i], bounds[i+1]
		switch {
		case !ok[lo]:
			flags[i] = ledger.BadCreatorSignature
		case p.policy.Evaluate(msp.Signers(items[lo+1:hi], ok[lo+1:hi])) != nil:
			flags[i] = ledger.EndorsementPolicyFailure
		default:
			flags[i] = ledger.Valid
		}
	}
	return flags
}

// validateMVCC checks that every read version is still current and that no
// earlier transaction in this block wrote a key this one read.
func (p *Peer) validateMVCC(tx *ledger.Transaction, blockWrites map[string]bool) ledger.ValidationCode {
	for _, r := range tx.RWSet.Reads {
		if blockWrites[r.Namespace+"\x00"+r.Key] {
			return ledger.MVCCConflict
		}
		cur, ok := p.state.GetVersion(r.Namespace, r.Key)
		if ok != r.Exists {
			return ledger.MVCCConflict
		}
		if ok && cur.Compare(r.Version) != 0 {
			return ledger.MVCCConflict
		}
	}
	return ledger.Valid
}

// notify wakes height waiters, commit waiters and event subscribers for a
// committed block.
func (p *Peer) notify(block *ledger.Block) {
	p.mu.Lock()
	defer p.mu.Unlock()
	close(p.committed)
	p.committed = make(chan struct{})
	for i := range block.Txs {
		tx := &block.Txs[i]
		flag := block.Metadata.Flags[i]
		for _, ch := range p.commitWait[tx.ID] {
			select {
			case ch <- flag:
			default:
			}
		}
		delete(p.commitWait, tx.ID)
		if flag != ledger.Valid {
			continue
		}
		for _, e := range tx.Events {
			for _, sub := range p.subscribers {
				select {
				case sub <- chaincode.Event{TxID: tx.ID, Name: e.Name, Payload: e.Payload}:
				default:
				}
			}
		}
	}
}
