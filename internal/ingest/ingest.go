// Package ingest implements the pipelined, batched write path of the
// framework: a streaming pipeline that accepts social records, chunks and
// adds their payloads to IPFS over a bounded worker pool, coalesces the
// on-chain metadata commits into batched endorsement proposals (one
// envelope carrying many addData calls, executed on one simulator per
// peer), and overlaps ordering/commit of one batch with preparation of
// the next. It is the counterpart of internal/query's retrieval pipeline
// for the store direction of the paper's Figure 1, scaled for the
// heavy-write social workloads the related work (DECENT, smart-contract
// personal-data stores) identifies as the bottleneck.
//
// Stages and backpressure:
//
//	Submit ──► in (bounded queue) ──► AddWorkers × [verify, hash-check,
//	chunk+IPFS Add] ──► staged ──► batcher [cut at BatchSize or
//	FlushInterval] ──► MaxInFlight × [endorse batch, order, commit]
//
// Every queue is bounded: Submit blocks when the input queue is full, the
// batcher blocks when MaxInFlight batches are awaiting commit, and
// ordering.ErrBacklog from the cutter is retried with a delay. A record
// that fails client-side validation (bad signature, payload/metadata hash
// mismatch) is rejected before it costs IPFS storage, exactly like the
// serial core.Client.StoreData path. A batch whose endorsement fails is
// bisected so one poisoned record cannot sink its batch-mates.
package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/contracts"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/ipfs"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
)

// ErrValidation wraps client-side record rejections (bad payload
// signature, wrong signer, payload hash not matching the metadata).
var ErrValidation = errors.New("ingest: validation failed")

// ErrClosed is returned by Submit after Drain has begun.
var ErrClosed = errors.New("ingest: pipeline closed")

// Record is one social-data submission: a source-signed payload and its
// extracted metadata.
type Record struct {
	Signed msp.SignedMessage
	Meta   detect.MetadataRecord
}

// Result reports the outcome of one record, in Submit order.
type Result struct {
	Index int
	// RecordID is the on-chain record identifier (the sub-transaction ID
	// of the record's call inside its batch envelope); retrieval resolves
	// it exactly like a serial store's transaction ID.
	RecordID string
	CID      string
	BlockNum uint64
	// Latency is Submit-to-commit, including queueing.
	Latency time.Duration
	Err     error
}

// Mode selects a pipeline preset for the serial/batched/pipelined
// ablation. The serial and batched presets define their stage shape and
// force the corresponding Config fields; the pipelined preset only fills
// fields left unset.
type Mode string

const (
	// ModeSerial degenerates the pipeline to the one-record-at-a-time
	// path: one add worker, one record per envelope, one batch in flight.
	ModeSerial Mode = "serial"
	// ModeBatched coalesces endorsement into batch envelopes but keeps a
	// single add worker and a single batch in flight.
	ModeBatched Mode = "batched"
	// ModePipelined batches and overlaps all stages (the default).
	ModePipelined Mode = "pipelined"
)

// Valid reports whether m names a known preset (empty is not valid; the
// zero Config defaults to ModePipelined via fill, but CLIs should reject
// unknown spellings rather than silently running the wrong ablation leg).
func (m Mode) Valid() bool {
	switch m {
	case ModeSerial, ModeBatched, ModePipelined:
		return true
	}
	return false
}

// Config tunes the pipeline.
type Config struct {
	// Mode applies a preset (default pipelined).
	Mode Mode
	// AddWorkers bounds concurrent chunk+IPFS-Add workers.
	AddWorkers int
	// BatchSize is the number of records coalesced into one envelope.
	BatchSize int
	// MaxInFlight bounds batches submitted but not yet committed.
	// Consecutive batches from one source read the provenance head the
	// previous batch wrote, so a second in-flight batch typically pays an
	// MVCC re-endorsement, which the pipeline's own commit stage retries
	// (up to conflictRetries times).
	MaxInFlight int
	// FlushInterval cuts a partial batch after this delay (default 25ms).
	FlushInterval time.Duration
	// QueueDepth bounds the input queue Submit blocks on
	// (default 2×BatchSize, minimum 64).
	QueueDepth int
}

func (c *Config) fill() {
	if c.Mode == "" {
		c.Mode = ModePipelined
	}
	switch c.Mode {
	case ModeSerial:
		c.AddWorkers, c.BatchSize, c.MaxInFlight = 1, 1, 1
	case ModeBatched:
		c.AddWorkers, c.MaxInFlight = 1, 1
		if c.BatchSize <= 0 {
			c.BatchSize = 64
		}
	default:
		if c.AddWorkers <= 0 {
			c.AddWorkers = 8
		}
		if c.BatchSize <= 0 {
			c.BatchSize = 64
		}
		if c.MaxInFlight <= 0 {
			c.MaxInFlight = 2
		}
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 25 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.BatchSize
		if c.QueueDepth < 64 {
			c.QueueDepth = 64
		}
	}
}

// Stats aggregates a pipeline run.
type Stats struct {
	Submitted int
	Stored    int
	Failed    int
	// Batches counts committed envelopes (bisected halves count once each).
	Batches int
	// ConflictRetries counts whole-batch re-endorsements after committed
	// MVCC invalidations — the price of overlapping batches that share
	// the per-source provenance head.
	ConflictRetries int
	Elapsed         time.Duration
}

// Throughput returns committed records per second.
func (s Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Stored) / s.Elapsed.Seconds()
}

type job struct {
	idx int
	rec Record
	enq time.Time
}

type staged struct {
	idx  int
	cid  string
	call chaincode.BatchCall
	enq  time.Time
}

// Pipeline is a running ingest pipeline bound to one gateway (the
// submitting source) and one IPFS node.
type Pipeline struct {
	gw    *fabric.Gateway
	store *ipfs.Node
	cfg   Config

	in     chan job
	staged chan staged
	slots  chan struct{}

	producers sync.WaitGroup // in-flight Submit sends on p.in
	addWg     sync.WaitGroup
	batchWg   sync.WaitGroup
	subWg     sync.WaitGroup

	mu      sync.Mutex
	started bool
	closed  bool
	startT  time.Time
	results []Result
	stats   Stats
}

// New builds a pipeline; call Start before Submit.
func New(gw *fabric.Gateway, store *ipfs.Node, cfg Config) *Pipeline {
	cfg.fill()
	return &Pipeline{
		gw:     gw,
		store:  store,
		cfg:    cfg,
		in:     make(chan job, cfg.QueueDepth),
		staged: make(chan staged, cfg.BatchSize),
		slots:  make(chan struct{}, cfg.MaxInFlight),
	}
}

// Config returns the effective (preset-resolved) configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Start launches the stage workers. Starting twice is a no-op.
func (p *Pipeline) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return
	}
	p.started = true
	p.startT = time.Now()
	for i := 0; i < p.cfg.AddWorkers; i++ {
		p.addWg.Add(1)
		go p.addWorker()
	}
	p.batchWg.Add(1)
	go p.batcher()
}

// Submit feeds one record into the pipeline, blocking when the input
// queue is full (backpressure to the producer — the open-loop driver in
// cmd/trafficgen measures exactly this).
func (p *Pipeline) Submit(rec Record) error {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return errors.New("ingest: pipeline not started")
	}
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	idx := len(p.results)
	p.results = append(p.results, Result{Index: idx})
	p.stats.Submitted++
	// Registered under the same lock as the closed check, so Drain's
	// producers.Wait() either sees this send or Submit saw closed —
	// close(p.in) can never race an in-flight send.
	p.producers.Add(1)
	p.mu.Unlock()
	p.in <- job{idx: idx, rec: rec, enq: time.Now()}
	p.producers.Done()
	return nil
}

// Drain closes the input, waits for every in-flight record to resolve and
// returns all results in Submit order.
func (p *Pipeline) Drain() []Result {
	p.mu.Lock()
	if !p.started || p.closed {
		defer p.mu.Unlock()
		p.closed = true
		return append([]Result(nil), p.results...)
	}
	p.closed = true
	p.mu.Unlock()
	p.producers.Wait() // add workers keep draining, so blocked Submits finish
	close(p.in)
	p.addWg.Wait()
	close(p.staged)
	p.batchWg.Wait()
	p.subWg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Elapsed = time.Since(p.startT)
	return append([]Result(nil), p.results...)
}

// Run ingests a fixed record set end to end.
func (p *Pipeline) Run(records []Record) []Result {
	p.Start()
	for _, r := range records {
		if err := p.Submit(r); err != nil {
			break
		}
	}
	return p.Drain()
}

// Stats returns the pipeline's aggregate counters (Elapsed is set by
// Drain).
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// addWorker is stage 1: client-side validation, chunking and IPFS Add.
func (p *Pipeline) addWorker() {
	defer p.addWg.Done()
	for j := range p.in {
		s, err := p.prepare(j)
		if err != nil {
			p.fail(j.idx, err)
			continue
		}
		p.staged <- s
	}
}

// prepare validates one record and uploads its payload off-chain; the
// returned staged entry carries the on-chain call for the batcher.
func (p *Pipeline) prepare(j job) (staged, error) {
	if !j.rec.Signed.Verify() {
		return staged{}, fmt.Errorf("%w: bad payload signature", ErrValidation)
	}
	if got, want := j.rec.Signed.Creator.ID(), p.gw.Client().ID(); got != want {
		return staged{}, fmt.Errorf("%w: payload signed by %s, pipeline client is %s", ErrValidation, got, want)
	}
	sum := sha256.Sum256(j.rec.Signed.Payload)
	if actual := hex.EncodeToString(sum[:]); actual != j.rec.Meta.DataHash {
		return staged{}, fmt.Errorf("%w: payload hash %s does not match metadata data_hash", ErrValidation, actual[:12])
	}
	metaJSON, err := json.Marshal(j.rec.Meta)
	if err != nil {
		return staged{}, err
	}
	root, err := p.store.Add(j.rec.Signed.Payload)
	if err != nil {
		return staged{}, fmt.Errorf("ingest: ipfs add: %w", err)
	}
	return staged{
		idx: j.idx,
		cid: root.String(),
		call: chaincode.BatchCall{
			Chaincode: contracts.DataCC,
			Fn:        "addData",
			Args:      [][]byte{[]byte(root.String()), metaJSON},
		},
		enq: j.enq,
	}, nil
}

// batcher is stage 2: cut staged records into batch envelopes at
// BatchSize or FlushInterval, holding at most MaxInFlight batches in the
// commit stage.
func (p *Pipeline) batcher() {
	defer p.batchWg.Done()
	var cur []staged
	var timer <-chan time.Time
	flush := func() {
		if len(cur) == 0 {
			return
		}
		batch := cur
		cur, timer = nil, nil
		p.slots <- struct{}{} // in-flight bound; blocks the cutter
		p.subWg.Add(1)
		go func() {
			defer p.subWg.Done()
			defer func() { <-p.slots }()
			p.commit(batch)
		}()
	}
	for {
		select {
		case s, ok := <-p.staged:
			if !ok {
				flush()
				return
			}
			cur = append(cur, s)
			if len(cur) == 1 {
				timer = time.After(p.cfg.FlushInterval)
			}
			if len(cur) >= p.cfg.BatchSize {
				flush()
			}
		case <-timer:
			flush()
		}
	}
}

// backlogRetries bounds resubmission after ordering backpressure.
const backlogRetries = 20

// conflictRetries bounds whole-batch re-endorsement after a committed
// MVCC invalidation. Consecutive batches from one source both read the
// provenance head, so with MaxInFlight > 1 the loser of each commit round
// must re-endorse against fresh state; commit rounds always admit one
// winner, so a handful of rounds clears any in-flight window. A retry
// needs no pause: the gateway's next proposal carries the height of the
// block the batch lost to, so every endorser reads the winner's writes.
const conflictRetries = 12

// commit is stage 3: endorse the batch as one envelope, order it and wait
// for commit. An endorsement failure on a multi-record batch is bisected
// to isolate the failing record(s).
func (p *Pipeline) commit(items []staged) {
	calls := make([]chaincode.BatchCall, len(items))
	for i, it := range items {
		calls[i] = it.call
	}
	var res *fabric.Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = p.submitWithBackoff(calls)
		if err == nil && res.Flag == ledger.MVCCConflict && attempt < conflictRetries {
			p.mu.Lock()
			p.stats.ConflictRetries++
			p.mu.Unlock()
			continue
		}
		break
	}
	if err != nil {
		// Bisection isolates a poisoned record behind an endorsement
		// failure; ordering rejections are batch-agnostic, and splitting
		// would hammer an already-saturated (or stopped) orderer with
		// O(N log N) extra submissions.
		if len(items) > 1 && !errors.Is(err, ordering.ErrBacklog) && !errors.Is(err, ordering.ErrStopped) {
			mid := len(items) / 2
			p.commit(items[:mid])
			p.commit(items[mid:])
			return
		}
		for _, it := range items {
			p.fail(it.idx, err)
		}
		return
	}
	if res.Flag != ledger.Valid {
		ferr := res.Err()
		for _, it := range items {
			p.fail(it.idx, ferr)
		}
		return
	}
	now := time.Now()
	p.mu.Lock()
	p.stats.Batches++
	p.stats.Stored += len(items)
	for i, it := range items {
		p.results[it.idx] = Result{
			Index:    it.idx,
			RecordID: chaincode.SubTxID(res.TxID, i),
			CID:      it.cid,
			BlockNum: res.BlockNum,
			Latency:  now.Sub(it.enq),
		}
	}
	p.mu.Unlock()
}

// submitWithBackoff submits one batch envelope, backing off and retrying
// on ordering backpressure (the cutter's MaxPendingTxs bound).
func (p *Pipeline) submitWithBackoff(calls []chaincode.BatchCall) (*fabric.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := p.gw.SubmitBatch(calls)
		if err != nil && errors.Is(err, ordering.ErrBacklog) && attempt < backlogRetries {
			time.Sleep(time.Duration(attempt+1) * 2 * time.Millisecond)
			continue
		}
		return res, err
	}
}

func (p *Pipeline) fail(idx int, err error) {
	p.mu.Lock()
	p.results[idx].Err = err
	p.stats.Failed++
	p.mu.Unlock()
}
