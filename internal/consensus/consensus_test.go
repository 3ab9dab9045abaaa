package consensus

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"socialchain/internal/msp"
	"socialchain/internal/transport"
)

// harness spins up n validators, v0..v<n-1>, each on a Bus over its own
// transport endpoint, with per-validator behaviours and a shared delivery
// log.
type harness struct {
	net        *transport.InProcNet // nil over TCP
	validators []*Validator
	signers    []*msp.Signer
	mu         sync.Mutex
	delivered  map[string][]string // validator id -> payloads in order
	evictions  map[string][]string
}

func newHarness(t testing.TB, n int, behaviors map[int]Behavior, timeout time.Duration) *harness {
	t.Helper()
	return newHarnessCfg(t, n, behaviors, timeout, nil)
}

// newHarnessCfg is newHarness with a hook to adjust each validator's Config
// before construction. The validators share one in-process hub, h.net.
func newHarnessCfg(t testing.TB, n int, behaviors map[int]Behavior, timeout time.Duration, tweak func(*Config)) *harness {
	t.Helper()
	hub := transport.NewInProcNet(nil, nil)
	endpoints := make([]transport.Transport, n)
	for i := range endpoints {
		endpoints[i] = hub.Node(fmt.Sprintf("v%d", i))
	}
	h := newHarnessOn(t, endpoints, behaviors, timeout, tweak)
	h.net = hub
	return h
}

// newHarnessOn runs one validator per endpoint, named v<i> for endpoint
// i, and closes the endpoints when the test ends.
func newHarnessOn(t testing.TB, endpoints []transport.Transport, behaviors map[int]Behavior, timeout time.Duration, tweak func(*Config)) *harness {
	t.Helper()
	n := len(endpoints)
	h := &harness{
		signers:   make([]*msp.Signer, n),
		delivered: make(map[string][]string),
		evictions: make(map[string][]string),
	}
	ids := make([]string, n)
	idents := make(map[string]msp.Identity, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("v%d", i)
		s, err := msp.NewSigner("org", ids[i], msp.RoleMember)
		if err != nil {
			t.Fatalf("signer: %v", err)
		}
		h.signers[i] = s
		idents[ids[i]] = s.Identity
	}
	for i := 0; i < n; i++ {
		id := ids[i]
		cfg := Config{
			ID:             id,
			Validators:     ids,
			Signer:         h.signers[i],
			Identities:     idents,
			Sender:         NewBus(endpoints[i], "main"),
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
		for _, e := range endpoints {
			e.Close()
		}
	})
	return h
}

func (h *harness) deliveredAt(i int) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.delivered[fmt.Sprintf("v%d", i)]...)
}

// waitDelivered waits until validator i has delivered want payloads.
func (h *harness) waitDelivered(i, want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if len(h.deliveredAt(i)) >= want {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

func TestSingleDecisionAllHonest(t *testing.T) {
	h := newHarness(t, 4, nil, time.Second)
	h.validators[0].Propose([]byte("tx-1"))
	for i := 0; i < 4; i++ {
		if !h.waitDelivered(i, 1, 3*time.Second) {
			t.Fatalf("validator %d did not deliver", i)
		}
	}
	for i := 0; i < 4; i++ {
		got := h.deliveredAt(i)
		if len(got) != 1 || got[0] != "tx-1" {
			t.Fatalf("validator %d delivered %v", i, got)
		}
	}
}

func TestSequentialDecisionsSameOrder(t *testing.T) {
	h := newHarness(t, 4, nil, time.Second)
	const numTx = 20
	for k := 0; k < numTx; k++ {
		h.validators[k%4].Propose([]byte(fmt.Sprintf("tx-%02d", k)))
	}
	for i := 0; i < 4; i++ {
		if !h.waitDelivered(i, numTx, 10*time.Second) {
			t.Fatalf("validator %d delivered only %d/%d", i, len(h.deliveredAt(i)), numTx)
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
	// All proposals must appear exactly once.
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

// TestOverlapSingleLeaderBurst: one leader receives a burst and
// pre-prepares every pending request at once, so many sequences overlap in
// prepare/commit. Every payload must land exactly once, in the leader's
// order, on every replica.
func TestOverlapSingleLeaderBurst(t *testing.T) {
	h := newHarness(t, 4, nil, time.Second)
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
	// submission order; the guarantee is agreement: every replica delivers
	// the leader's order, each payload exactly once.
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

func TestToleratesSilentFollower(t *testing.T) {
	// n=4 tolerates f=1 silent non-leader.
	h := newHarness(t, 4, map[int]Behavior{2: Silent{}}, time.Second)
	h.validators[0].Propose([]byte("tx-silent"))
	for _, i := range []int{0, 1, 3} {
		if !h.waitDelivered(i, 1, 3*time.Second) {
			t.Fatalf("validator %d did not deliver with one silent follower", i)
		}
	}
}

func TestViewChangeOnSilentLeader(t *testing.T) {
	// v0 leads view 0 and is silent; the request must still commit after a
	// view change to v1.
	h := newHarness(t, 4, map[int]Behavior{0: Silent{}}, 300*time.Millisecond)
	h.validators[1].Propose([]byte("tx-vc"))
	for _, i := range []int{1, 2, 3} {
		if !h.waitDelivered(i, 1, 10*time.Second) {
			t.Fatalf("validator %d did not deliver after view change", i)
		}
	}
	if v := h.validators[1].View(); v == 0 {
		t.Fatalf("expected view change, still in view 0")
	}
}

func TestEquivocatingLeaderEvicted(t *testing.T) {
	// v0 equivocates: half the replicas get one payload, half another.
	h := newHarness(t, 4, map[int]Behavior{0: &Equivocator{Half: map[string]bool{"v1": true}}}, 300*time.Millisecond)
	h.validators[0].Propose([]byte("tx-equiv"))
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
		t.Fatal("equivocating leader was never evicted")
	}
	// The request should still be delivered by the remaining replicas after
	// the view change.
	for _, i := range []int{1, 2, 3} {
		if !h.waitDelivered(i, 1, 10*time.Second) {
			t.Fatalf("validator %d did not deliver after eviction", i)
		}
	}
}

func TestWrongDigestVoterDoesNotBlock(t *testing.T) {
	h := newHarness(t, 4, map[int]Behavior{3: WrongDigest{}}, time.Second)
	h.validators[0].Propose([]byte("tx-baddigest"))
	for _, i := range []int{0, 1, 2} {
		if !h.waitDelivered(i, 1, 5*time.Second) {
			t.Fatalf("validator %d did not deliver with a wrong-digest voter", i)
		}
	}
}

func TestSevenValidatorsTwoSilent(t *testing.T) {
	// n=7 tolerates f=2.
	h := newHarness(t, 7, map[int]Behavior{3: Silent{}, 5: Silent{}}, time.Second)
	for k := 0; k < 5; k++ {
		h.validators[0].Propose([]byte(fmt.Sprintf("tx-%d", k)))
	}
	for _, i := range []int{0, 1, 2, 4, 6} {
		if !h.waitDelivered(i, 5, 10*time.Second) {
			t.Fatalf("validator %d delivered %d/5", i, len(h.deliveredAt(i)))
		}
	}
}

func TestDuplicateProposalDeliveredOnce(t *testing.T) {
	h := newHarness(t, 4, nil, time.Second)
	h.validators[0].Propose([]byte("tx-dup"))
	h.validators[1].Propose([]byte("tx-dup"))
	if !h.waitDelivered(0, 1, 3*time.Second) {
		t.Fatal("no delivery")
	}
	// Give a duplicate a chance to (incorrectly) appear.
	time.Sleep(300 * time.Millisecond)
	if got := h.deliveredAt(0); len(got) != 1 {
		t.Fatalf("duplicate proposal delivered %d times", len(got))
	}
}

func TestLeaderOfSkipsEvicted(t *testing.T) {
	h := newHarness(t, 4, nil, time.Second)
	v := h.validators[1]
	v.mu.Lock()
	v.evicted["v0"] = true
	leader := v.leaderOf(0)
	v.mu.Unlock()
	if leader != "v1" {
		t.Fatalf("leaderOf(0) with v0 evicted = %s, want v1", leader)
	}
}

func TestQuorumSizes(t *testing.T) {
	cases := []struct{ n, want int }{{4, 3}, {7, 5}, {10, 7}, {13, 9}}
	for _, c := range cases {
		h := newHarness(t, c.n, nil, time.Second)
		if got := h.validators[0].quorum(); got != c.want {
			t.Errorf("n=%d quorum=%d want %d", c.n, got, c.want)
		}
	}
}

// TestSwappedPayloadDropped: signatures cover a request's or pre-prepare's
// payload only through its digest, so a copy whose payload was swapped
// after signing still verifies. Replicas must drop it on the digest check:
// the swapped request is never pending, and the slot decides the leader's
// batch, not the swapped one.
func TestSwappedPayloadDropped(t *testing.T) {
	h := newHarness(t, 4, nil, time.Hour)
	h.validators[0].Stop() // the test speaks for leader v0
	leader := h.net.Node("v0")
	send := func(m Message, payload string) {
		m.From = "v0"
		m.Signature = h.signers[0].Sign(m.SigningBytes())
		m.Payload = []byte(payload)
		for _, to := range []string{"v1", "v2", "v3"} {
			if err := leader.Send(to, busStreamPrefix+"main", m.Encode()); err != nil {
				t.Fatalf("send to %s: %v", to, err)
			}
		}
	}
	send(Message{Type: MsgRequest, Digest: DigestOf([]byte("request"))}, "swapped request")
	pp := Message{Type: MsgPrePrepare, Seq: 1, Digest: DigestOf([]byte("batch"))}
	send(pp, "swapped batch")
	send(pp, "batch")
	for _, i := range []int{1, 2, 3} {
		if !h.waitDelivered(i, 1, 10*time.Second) {
			t.Fatalf("validator %d did not deliver the leader's batch", i)
		}
		if got := h.deliveredAt(i); len(got) != 1 || got[0] != "batch" {
			t.Fatalf("validator %d delivered %q, want [batch]", i, got)
		}
		if n := h.validators[i].Backlog(); n != 0 {
			t.Fatalf("validator %d holds %d pending requests; the swapped request was admitted", i, n)
		}
	}
}

// BenchmarkDecide times one PBFT decision among four validators, each on a
// Bus over an in-process transport endpoint: the leader proposes a payload
// and the iteration ends when all four have delivered it.
func BenchmarkDecide(b *testing.B) {
	for _, size := range []int{4 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("payload=%dKiB", size>>10), func(b *testing.B) {
			delivered := make(chan struct{}, 4) // one per validator per decision
			h := newHarnessCfg(b, 4, nil, time.Minute, func(c *Config) {
				c.Deliver = func(uint64, []byte) { delivered <- struct{}{} }
			})
			payload := make([]byte, size)
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh digest per decision; no validator holds the
				// previous payload once all four have delivered it.
				binary.BigEndian.PutUint64(payload, uint64(i))
				h.validators[0].Propose(payload)
				for range 4 {
					<-delivered
				}
			}
		})
	}
}

// TestEachMessageSignedOnce: a decided instance at n = 4 costs ten
// signatures — the entry replica's request gossip, the leader's
// pre-prepare, and one prepare and one commit per replica — because the
// message a replica processes locally is the one it broadcasts.
func TestEachMessageSignedOnce(t *testing.T) {
	h := newHarness(t, 4, nil, 5*time.Second)
	const instances = 3
	for k := 1; k <= instances; k++ {
		h.validators[0].Propose([]byte(fmt.Sprintf("tx-%d", k)))
		for i := range h.validators {
			if !h.waitDelivered(i, k, 3*time.Second) {
				t.Fatalf("validator %d did not deliver instance %d", i, k)
			}
		}
	}
	var signs int64
	for _, v := range h.validators {
		signs += v.signs.Load()
	}
	if signs != 10*instances {
		t.Fatalf("%d signatures for %d instances, want %d", signs, instances, 10*instances)
	}
}
