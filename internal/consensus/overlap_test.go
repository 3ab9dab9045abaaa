package consensus

import (
	"fmt"
	"testing"
	"time"

	"socialchain/internal/msp"
)

// newHarnessCfg is newHarness with a hook to adjust each validator's Config
// (overlap window) before construction.
func newHarnessCfg(t *testing.T, n int, behaviors map[int]Behavior, timeout time.Duration, tweak func(*Config)) *harness {
	t.Helper()
	h := &harness{
		t:         t,
		net:       NewInProcNet(nil, nil),
		delivered: make(map[string][]string),
		evictions: make(map[string][]string),
	}
	ids := make([]string, n)
	signers := make([]*msp.Signer, n)
	idents := make(map[string]msp.Identity, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("v%d", i)
		s, err := msp.NewSigner("org", ids[i], msp.RoleMember)
		if err != nil {
			t.Fatalf("signer: %v", err)
		}
		signers[i] = s
		idents[ids[i]] = s.Identity
	}
	for i := 0; i < n; i++ {
		id := ids[i]
		cfg := Config{
			ID:             id,
			Validators:     ids,
			Signer:         signers[i],
			Identities:     idents,
			Sender:         h.net,
			RequestTimeout: timeout,
			Behavior:       behaviors[i],
			Deliver: func(seq uint64, payload []byte) {
				h.mu.Lock()
				h.delivered[id] = append(h.delivered[id], string(payload))
				h.mu.Unlock()
			},
			OnEvict: func(peer string) {
				h.mu.Lock()
				h.evictions[id] = append(h.evictions[id], peer)
				h.mu.Unlock()
			},
		}
		if tweak != nil {
			tweak(&cfg)
		}
		h.validators = append(h.validators, NewValidator(cfg))
	}
	for _, v := range h.validators {
		v.Start()
	}
	t.Cleanup(func() {
		for _, v := range h.validators {
			v.Stop()
		}
	})
	return h
}

// TestOverlapDeliversSameTotalOrder runs a 30-proposal load with the
// overlap window enabled and checks the safety property overlap must
// preserve: every validator delivers the same payloads, in the same
// order, exactly once — identical guarantees to lockstep mode.
func TestOverlapDeliversSameTotalOrder(t *testing.T) {
	h := newHarnessCfg(t, 4, nil, time.Second, func(c *Config) {
		c.OverlapWindow = 4
	})
	const numTx = 30
	for k := 0; k < numTx; k++ {
		h.validators[k%4].Propose([]byte(fmt.Sprintf("tx-%02d", k)))
	}
	for i := 0; i < 4; i++ {
		if !h.waitDelivered(i, numTx, 15*time.Second) {
			t.Fatalf("validator %d delivered only %d/%d with overlap", i, len(h.deliveredAt(i)), numTx)
		}
	}
	ref := h.deliveredAt(0)
	for i := 1; i < 4; i++ {
		got := h.deliveredAt(i)
		if len(got) != len(ref) {
			t.Fatalf("validator %d delivered %d payloads, want %d", i, len(got), len(ref))
		}
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("validator %d order diverges at %d: %q vs %q", i, j, got[j], ref[j])
			}
		}
	}
	seen := make(map[string]int)
	for _, p := range ref {
		seen[p]++
	}
	if len(seen) != numTx {
		t.Fatalf("expected %d distinct payloads, got %d", numTx, len(seen))
	}
	for p, c := range seen {
		if c != 1 {
			t.Fatalf("payload %q delivered %d times", p, c)
		}
	}
}

// TestOverlapSingleLeaderBurst drives the pipelining case directly: one
// leader proposes a burst, so with a window of 4 the leader pre-prepares
// seq N+1 while N is still in prepare/commit. All payloads must land in
// submission order on every replica.
func TestOverlapSingleLeaderBurst(t *testing.T) {
	h := newHarnessCfg(t, 4, nil, time.Second, func(c *Config) {
		c.OverlapWindow = 4
	})
	const numTx = 16
	for k := 0; k < numTx; k++ {
		h.validators[0].Propose([]byte(fmt.Sprintf("burst-%02d", k)))
	}
	for i := 0; i < 4; i++ {
		if !h.waitDelivered(i, numTx, 15*time.Second) {
			t.Fatalf("validator %d delivered only %d/%d", i, len(h.deliveredAt(i)), numTx)
		}
	}
	// Pending requests sit in a map, so sequence assignment is not
	// submission order (same as lockstep); the guarantee is agreement:
	// every replica delivers the leader's order, each payload exactly once.
	ref := h.deliveredAt(0)
	seen := make(map[string]int)
	for _, p := range ref {
		seen[p]++
	}
	for j := 0; j < numTx; j++ {
		if seen[fmt.Sprintf("burst-%02d", j)] != 1 {
			t.Fatalf("burst-%02d delivered %d times at leader", j, seen[fmt.Sprintf("burst-%02d", j)])
		}
	}
	for i := 1; i < 4; i++ {
		got := h.deliveredAt(i)
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("validator %d slot %d = %q, leader has %q", i, j, got[j], ref[j])
			}
		}
	}
}

// TestOverlapStopDrainsExecutor checks Stop does not drop payloads the
// event loop already handed to the async executor.
func TestOverlapStopDrainsExecutor(t *testing.T) {
	h := newHarnessCfg(t, 4, nil, time.Second, func(c *Config) {
		c.OverlapWindow = 8
	})
	const numTx = 10
	for k := 0; k < numTx; k++ {
		h.validators[0].Propose([]byte(fmt.Sprintf("drain-%02d", k)))
	}
	if !h.waitDelivered(0, numTx, 15*time.Second) {
		t.Fatalf("leader delivered only %d/%d", len(h.deliveredAt(0)), numTx)
	}
	// Stop everything now; the t.Cleanup stop must then be a no-op and no
	// delivery may be lost or duplicated.
	for _, v := range h.validators {
		v.Stop()
	}
	got := h.deliveredAt(0)
	if len(got) != numTx {
		t.Fatalf("after Stop: %d payloads, want %d", len(got), numTx)
	}
}

// TestEquivocatorEvictedWithOverlap re-runs the byzantine-equivocator
// scenario with the overlap window on: the conflicting pre-prepares verify
// (they are validly signed — the fault is semantic, two payloads for one
// sequence) and the leader is still evicted, while evidence byte-identical
// to a replica's own pre-prepare is accepted without running ed25519.
func TestEquivocatorEvictedWithOverlap(t *testing.T) {
	h := newHarnessCfg(t, 4,
		map[int]Behavior{0: &Equivocator{Half: map[string]bool{"v1": true}}},
		300*time.Millisecond,
		func(c *Config) { c.OverlapWindow = 2 })
	h.validators[0].Propose([]byte("tx-equiv-overlap"))
	deadline := time.Now().Add(10 * time.Second)
	evicted := false
	for time.Now().Before(deadline) && !evicted {
		h.mu.Lock()
		for _, evs := range h.evictions {
			for _, e := range evs {
				if e == "v0" {
					evicted = true
				}
			}
		}
		h.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
	if !evicted {
		t.Fatal("equivocating leader was never evicted with the overlap window on")
	}
	for _, i := range []int{1, 2, 3} {
		if !h.waitDelivered(i, 1, 10*time.Second) {
			t.Fatalf("validator %d did not deliver after eviction", i)
		}
	}
	var skipped, verified int64
	for _, i := range []int{1, 2, 3} {
		s, v := h.validators[i].VerifyCacheStats()
		skipped += s
		verified += v
	}
	if verified == 0 {
		t.Fatal("no signature was verified")
	}
	if skipped == 0 {
		t.Fatal("no byte-identical evidence was skipped")
	}
}

// TestOverlapWindowBoundsInFlight checks the window actually bounds the
// leader: with window=1 behaviour degenerates to strict lockstep and the
// full burst still completes.
func TestOverlapWindowBoundsInFlight(t *testing.T) {
	h := newHarnessCfg(t, 4, nil, time.Second, func(c *Config) {
		c.OverlapWindow = 1
	})
	const numTx = 8
	for k := 0; k < numTx; k++ {
		h.validators[0].Propose([]byte(fmt.Sprintf("w1-%02d", k)))
	}
	for i := 0; i < 4; i++ {
		if !h.waitDelivered(i, numTx, 15*time.Second) {
			t.Fatalf("validator %d delivered only %d/%d with window=1", i, len(h.deliveredAt(i)), numTx)
		}
	}
}
