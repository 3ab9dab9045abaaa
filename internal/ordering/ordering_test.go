package ordering

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"socialchain/internal/codec/codectest"
	"socialchain/internal/consensus"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/transport"
)

// orderingHarness runs n validators, each with an ordering service, and
// records batches delivered at validator 0.
type orderingHarness struct {
	services []*Service
	mu       sync.Mutex
	batches  [][]ledger.Transaction
}

func newOrderingHarness(t *testing.T, n int, cfg CutterConfig) *orderingHarness {
	t.Helper()
	h := &orderingHarness{}
	hub := transport.NewInProcNet(nil, nil)
	ids := make([]string, n)
	signers := make([]*msp.Signer, n)
	idents := make(map[string]msp.Identity)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("o%d", i)
		s, err := msp.NewSigner("org", ids[i], msp.RoleMember)
		if err != nil {
			t.Fatal(err)
		}
		signers[i] = s
		idents[ids[i]] = s.Identity
	}
	var validators []*consensus.Validator
	for i := 0; i < n; i++ {
		first := i == 0
		v := consensus.NewValidator(consensus.Config{
			ID:         ids[i],
			Validators: ids,
			Signer:     signers[i],
			Identities: idents,
			Sender:     consensus.NewBus(hub.Node(ids[i]), "ordering"),
			Deliver: func(seq uint64, payload []byte) {
				if !first {
					return
				}
				batch, err := DecodeBatch(payload)
				if err != nil {
					t.Errorf("decode batch: %v", err)
					return
				}
				h.mu.Lock()
				h.batches = append(h.batches, batch.Txs)
				h.mu.Unlock()
			},
		})
		v.Start()
		validators = append(validators, v)
		svc := NewService(cfg, v, nil)
		svc.Start()
		h.services = append(h.services, svc)
	}
	t.Cleanup(func() {
		for _, s := range h.services {
			s.Stop()
		}
		for _, v := range validators {
			v.Stop()
		}
	})
	return h
}

func (h *orderingHarness) batchCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.batches)
}

func (h *orderingHarness) totalTxs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, b := range h.batches {
		n += len(b)
	}
	return n
}

func testTx(t *testing.T, id string) ledger.Transaction {
	t.Helper()
	s, err := msp.NewSigner("org", "client", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	return ledger.Transaction{ID: id, ChannelID: "ch", Creator: s.Identity, Timestamp: time.Now()}
}

func waitFor(t *testing.T, cond func() bool, timeout time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestCutOnMaxMessages(t *testing.T) {
	h := newOrderingHarness(t, 4, CutterConfig{MaxMessages: 3, BatchTimeout: time.Hour})
	for i := 0; i < 6; i++ {
		h.services[0].Submit(testTx(t, fmt.Sprintf("tx%d", i)))
	}
	waitFor(t, func() bool { return h.batchCount() >= 2 }, 5*time.Second, "2 batches")
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, b := range h.batches {
		if len(b) != 3 {
			t.Fatalf("batch %d has %d txs, want 3", i, len(b))
		}
	}
}

func TestCutOnTimeout(t *testing.T) {
	h := newOrderingHarness(t, 4, CutterConfig{MaxMessages: 100, BatchTimeout: 30 * time.Millisecond})
	h.services[0].Submit(testTx(t, "lonely"))
	waitFor(t, func() bool { return h.batchCount() == 1 }, 5*time.Second, "timeout cut")
	if h.totalTxs() != 1 {
		t.Fatalf("total txs %d", h.totalTxs())
	}
}

func TestCutOnBytes(t *testing.T) {
	h := newOrderingHarness(t, 4, CutterConfig{MaxMessages: 100, MaxBytes: 200, BatchTimeout: 50 * time.Millisecond})
	// Each tx is some 85 bytes once encoded; six must overflow 200 B
	// repeatedly.
	for i := 0; i < 6; i++ {
		h.services[0].Submit(testTx(t, fmt.Sprintf("bytes-%d", i)))
	}
	waitFor(t, func() bool { return h.totalTxs() == 6 }, 5*time.Second, "all txs ordered")
	if h.batchCount() < 2 {
		t.Fatalf("byte limit never cut: %d batches", h.batchCount())
	}
}

func TestMultipleEntryPoints(t *testing.T) {
	h := newOrderingHarness(t, 4, CutterConfig{MaxMessages: 1, BatchTimeout: 20 * time.Millisecond})
	for i := 0; i < 8; i++ {
		h.services[i%4].Submit(testTx(t, fmt.Sprintf("multi-%d", i)))
	}
	waitFor(t, func() bool { return h.totalTxs() == 8 }, 10*time.Second, "8 txs ordered")
	// No duplicates.
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := map[string]bool{}
	for _, b := range h.batches {
		for _, tx := range b {
			if seen[tx.ID] {
				t.Fatalf("tx %s ordered twice", tx.ID)
			}
			seen[tx.ID] = true
		}
	}
}

func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	b := Batch{Txs: []ledger.Transaction{testTx(t, "a"), testTx(t, "b")}}
	enc := b.Encode()
	got, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Txs) != 2 || got.Txs[0].ID != "a" || got.Txs[1].ID != "b" {
		t.Fatalf("round trip = %+v", got)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("decoded batch encodes differently")
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBatch(enc[:cut]); err == nil {
			t.Fatalf("batch cut to %d of %d bytes decoded", cut, len(enc))
		}
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	if _, err := DecodeBatch([]byte("not-a-batch")); err == nil {
		t.Fatal("garbage batch accepted")
	}
	// A transaction count the payload cannot hold fails before allocation.
	if _, err := DecodeBatch(binary.AppendUvarint(nil, 1<<62)); err == nil {
		t.Fatal("a count of 2^62 transactions accepted")
	}
}

// fuzzBatches are the batches the decoder's fuzz corpus grows from: none,
// one and two endorsed transactions.
func fuzzBatches() []Batch {
	fixed := func(id string) ledger.Transaction {
		s := msp.NewSignerFromSeed("fuzz", "org", "client", msp.RoleMember)
		return ledger.Transaction{ID: id, ChannelID: "ch", Creator: s.Identity, Timestamp: time.Unix(1, 2),
			Payload:      ledger.TxPayload{Chaincode: "cc", Fn: "put", ArgHashes: ledger.HashArgs([][]byte{[]byte("k"), []byte("v")})},
			Endorsements: []msp.EndorsementRef{{Signer: s.Identity.Fingerprint(), Signature: s.Sign([]byte(id))}}}
	}
	return []Batch{{}, {Txs: []ledger.Transaction{fixed("a")}}, {Txs: []ledger.Transaction{fixed("a"), fixed("b")}}}
}

func FuzzDecodeBatch(f *testing.F) {
	for _, b := range fuzzBatches() {
		enc := b.Encode()
		f.Add(enc)
		for cut := 1; cut < len(enc); cut += 13 {
			f.Add(enc[:cut])
		}
		for off := 0; off < len(enc); off += 17 {
			flipped := append([]byte(nil), enc...)
			flipped[off] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if b, err := DecodeBatch(in); err == nil && !bytes.Equal(b.Encode(), in) {
			t.Fatalf("decoded without error but re-encodes differently")
		}
	})
}

// TestFuzzCorpusCurrent: the committed seeds are encodings in this format.
func TestFuzzCorpusCurrent(t *testing.T) {
	batches := fuzzBatches()
	two := batches[2].Encode()
	flipped := append([]byte(nil), two...)
	flipped[9] ^= 0x10 // in the creator's organisation
	codectest.Corpus(t, "FuzzDecodeBatch", map[string][]any{
		"empty":        {batches[0].Encode()},
		"two-txs":      {two},
		"two-txs-cut":  {two[:len(two)/2]},
		"two-txs-flip": {flipped},
	})
}

func TestPendingAndProposedCounters(t *testing.T) {
	h := newOrderingHarness(t, 4, CutterConfig{MaxMessages: 2, BatchTimeout: time.Hour})
	h.services[0].Submit(testTx(t, "p1"))
	if h.services[0].PendingTxs() != 1 {
		t.Fatalf("pending = %d", h.services[0].PendingTxs())
	}
	h.services[0].Submit(testTx(t, "p2"))
	waitFor(t, func() bool { return h.services[0].Proposed() == 1 }, 5*time.Second, "proposal")
	if h.services[0].PendingTxs() != 0 {
		t.Fatalf("pending after cut = %d", h.services[0].PendingTxs())
	}
}

// TestSubmitAfterStopRejected checks the post-Stop typed error: a stopped
// service must reject rather than silently drop transactions, and Stop
// must be idempotent.
func TestSubmitAfterStopRejected(t *testing.T) {
	h := newOrderingHarness(t, 4, CutterConfig{MaxMessages: 2, BatchTimeout: 20 * time.Millisecond})
	if err := h.services[0].Submit(testTx(t, "before")); err != nil {
		t.Fatalf("submit before stop: %v", err)
	}
	h.services[0].Stop()
	h.services[0].Stop() // idempotent
	if err := h.services[0].Submit(testTx(t, "after")); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop: err = %v, want ErrStopped", err)
	}
	if got := h.services[0].PendingTxs(); got > 1 {
		t.Fatalf("pending after rejected submit = %d", got)
	}
}

// TestSubmitRejectsNestedBatch: the encoding carries an envelope's calls
// as one flat list, so an envelope whose batched call has a batch of its
// own would be ordered, hashed and committed without it. It is refused and
// leaves nothing pending.
func TestSubmitRejectsNestedBatch(t *testing.T) {
	svc := NewService(CutterConfig{MaxMessages: 1 << 30, BatchTimeout: time.Hour}, nil, nil)
	tx := testTx(t, "nested")
	call := ledger.TxPayload{Chaincode: "kv", Fn: "put", ArgHashes: ledger.HashArgs([][]byte{[]byte("k"), []byte("v")})}
	tx.Payload = ledger.TxPayload{Batch: []ledger.TxPayload{call, {Batch: []ledger.TxPayload{call}}}}
	if err := svc.Submit(tx); err == nil || !strings.Contains(err.Error(), "batch of its own") {
		t.Fatalf("submit of a nested batch: %v", err)
	}
	if got := svc.PendingTxs(); got != 0 {
		t.Fatalf("pending = %d after the refusal", got)
	}
	tx.Payload.Batch[1] = call
	if err := svc.Submit(tx); err != nil {
		t.Fatalf("submit of a flat batch: %v", err)
	}
}

// TestSubmitBacklogBound checks the MaxPendingTxs backpressure bound. The
// service is built over a stopped-clock-free but unstarted consensus pair
// so nothing drains pending; the bound must convert unbounded growth into
// ErrBacklog.
func TestSubmitBacklogBound(t *testing.T) {
	// A service whose loop is never started and whose MaxMessages is huge
	// never cuts, so pending only grows via Submit.
	svc := NewService(CutterConfig{MaxMessages: 1 << 30, BatchTimeout: time.Hour, MaxPendingTxs: 8}, nil, nil)
	for i := 0; i < 8; i++ {
		if err := svc.Submit(testTx(t, fmt.Sprintf("fill-%d", i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := svc.Submit(testTx(t, "overflow")); !errors.Is(err, ErrBacklog) {
		t.Fatalf("submit at bound: err = %v, want ErrBacklog", err)
	}
	if got := svc.PendingTxs(); got != 8 {
		t.Fatalf("pending = %d, want 8", got)
	}
}
