// Package ordering implements the ordering service of the permissioned
// blockchain: a block cutter that batches endorsed transactions by count,
// size and timeout, and a BFT-backed service that achieves total order on
// batches through the consensus validators, delivering identical batch
// sequences to every peer's committer.
package ordering

import (
	"errors"
	"sync"
	"time"

	"socialchain/internal/codec"
	"socialchain/internal/ledger"
	"socialchain/internal/obs"
	"socialchain/internal/sim"
)

// Proposer receives cut batches for total ordering. A local
// *consensus.Validator satisfies it directly; an out-of-process orderer
// daemon plugs in a remote proposer that ships the batch to a validator
// over the wire.
type Proposer interface {
	Propose(payload []byte)
}

// ErrStopped is returned by Submit after Stop: a stopped service would
// silently drop the transaction (its loop no longer cuts batches).
var ErrStopped = errors.New("ordering: service stopped")

// ErrBacklog is returned by Submit when the pending queue is at its
// MaxPendingTxs bound — the backpressure signal ingest clients react to
// (back off and resubmit) instead of growing the queue without limit.
var ErrBacklog = errors.New("ordering: pending queue full")

// CutterConfig tunes batching, analogous to Fabric's BatchSize/BatchTimeout.
type CutterConfig struct {
	// MaxMessages cuts a batch at this many transactions (default 10).
	MaxMessages int
	// MaxBytes cuts a batch when its encoded size would exceed this
	// (default 2 MiB).
	MaxBytes int
	// BatchTimeout cuts a non-empty batch after this delay (default 50ms).
	BatchTimeout time.Duration
	// MaxPendingTxs bounds the transactions buffered awaiting a cut.
	// Submissions arriving while a slow consensus proposal holds the
	// cutter back pile up here; at the bound Submit rejects with
	// ErrBacklog instead of growing the slice unboundedly (default 4096).
	MaxPendingTxs int
}

func (c *CutterConfig) fill() {
	if c.MaxMessages <= 0 {
		c.MaxMessages = 10
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 2 << 20
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 50 * time.Millisecond
	}
	if c.MaxPendingTxs <= 0 {
		c.MaxPendingTxs = 4096
	}
}

// Batch is the unit of ordering: a slice of endorsed transactions.
type Batch struct {
	Txs []ledger.Transaction `json:"txs"`
}

// Encode serialises a batch for consensus: the transaction count, then
// each transaction's canonical encoding (ledger.AppendTxs).
func (b Batch) Encode() []byte {
	return codec.Encode(func(enc []byte) []byte { return ledger.AppendTxs(enc, b.Txs) })
}

// DecodeBatch parses a batch payload.
func DecodeBatch(p []byte) (Batch, error) {
	r := codec.NewReader(p)
	b := Batch{Txs: ledger.DecodeTxs(r)}
	return b, r.Done()
}

// Service accepts transactions, cuts batches and proposes them through the
// local consensus validator. Decided batches arrive at the validator's
// Deliver callback (wired by the network assembly), not here.
type Service struct {
	cfg       CutterConfig
	validator Proposer
	clock     sim.Clock

	mu       sync.Mutex
	pending  []ledger.Transaction
	bytes    int
	oldest   time.Time
	stopped  bool
	stopCh   chan struct{}
	doneCh   chan struct{}
	proposed int
}

// NewService creates an ordering front-end over a batch proposer
// (normally a consensus validator).
func NewService(cfg CutterConfig, v Proposer, clock sim.Clock) *Service {
	cfg.fill()
	if clock == nil {
		clock = sim.RealClock{}
	}
	return &Service{
		cfg:       cfg,
		validator: v,
		clock:     clock,
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
}

// Start launches the batch-timeout loop.
func (s *Service) Start() { go s.loop() }

// Stop flushes nothing and stops the loop. Stopping twice is a no-op;
// subsequent Submits are rejected with ErrStopped.
func (s *Service) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stopCh)
	<-s.doneCh
}

// Submit enqueues one endorsed transaction for ordering. It rejects
// transactions after Stop (ErrStopped) and applies the MaxPendingTxs
// backpressure bound (ErrBacklog) so the pending queue cannot grow
// without limit while consensus is slow. An envelope nested deeper than
// the encoding goes (Transaction.CheckFlat) is rejected outright.
func (s *Service) Submit(tx ledger.Transaction) error {
	if err := tx.CheckFlat(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return ErrStopped
	}
	if len(s.pending) >= s.cfg.MaxPendingTxs {
		s.mu.Unlock()
		return ErrBacklog
	}
	var size int
	codec.Scratch(func(b []byte) []byte {
		b = tx.AppendTo(b)
		size = len(b)
		return b
	})
	if len(s.pending) == 0 {
		s.oldest = s.clock.Now()
	}
	// Cut on byte overflow before appending.
	if s.bytes+size > s.cfg.MaxBytes && len(s.pending) > 0 {
		s.cutLocked()
	}
	s.pending = append(s.pending, tx)
	s.bytes += size
	var cut Batch
	doCut := false
	if len(s.pending) >= s.cfg.MaxMessages {
		cut, doCut = s.takeLocked()
	}
	s.mu.Unlock()
	if doCut {
		s.propose(cut)
	}
	return nil
}

// cutLocked proposes the current pending batch; caller holds mu.
func (s *Service) cutLocked() {
	batch, ok := s.takeLocked()
	if !ok {
		return
	}
	s.mu.Unlock()
	s.propose(batch)
	s.mu.Lock()
}

func (s *Service) takeLocked() (Batch, bool) {
	if len(s.pending) == 0 {
		return Batch{}, false
	}
	batch := Batch{Txs: s.pending}
	s.pending = nil
	s.bytes = 0
	return batch, true
}

func (s *Service) propose(b Batch) {
	s.mu.Lock()
	s.proposed++
	s.mu.Unlock()
	s.validator.Propose(b.Encode())
}

// Observe publishes the service's cutter instrumentation into an obs
// registry: queue depth (the backpressure picture) and batches proposed.
func (s *Service) Observe(reg *obs.Registry) {
	reg.GaugeFunc("ordering_pending_txs", "Transactions buffered awaiting a batch cut.", func() float64 {
		return float64(s.PendingTxs())
	})
	reg.CounterFunc("ordering_batches_proposed_total", "Batches proposed to consensus.", func() int64 {
		return int64(s.Proposed())
	})
}

// Proposed reports how many batches this service has proposed.
func (s *Service) Proposed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proposed
}

// PendingTxs reports the number of transactions awaiting a cut.
func (s *Service) PendingTxs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

func (s *Service) loop() {
	defer close(s.doneCh)
	tick := s.cfg.BatchTimeout / 2
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.clock.After(tick):
			s.mu.Lock()
			if len(s.pending) > 0 && s.clock.Now().Sub(s.oldest) >= s.cfg.BatchTimeout {
				s.cutLocked()
			}
			s.mu.Unlock()
		}
	}
}
