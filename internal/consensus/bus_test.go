package consensus

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"socialchain/internal/msp"
	"socialchain/internal/transport"
)

// busHarness spins up n validators whose messages cross a real byte
// transport (encode -> frame -> decode) instead of pointer passing.
type busHarness struct {
	t          *testing.T
	validators []*Validator
	endpoints  []transport.Transport
	mu         sync.Mutex
	delivered  map[string][]string
}

func newBusHarness(t *testing.T, endpoints []transport.Transport, timeout time.Duration) *busHarness {
	t.Helper()
	n := len(endpoints)
	h := &busHarness{t: t, endpoints: endpoints, delivered: make(map[string][]string)}
	ids := make([]string, n)
	signers := make([]*msp.Signer, n)
	idents := make(map[string]msp.Identity, n)
	for i := 0; i < n; i++ {
		ids[i] = endpoints[i].ID()
		s, err := msp.NewSigner("org", ids[i], msp.RoleMember)
		if err != nil {
			t.Fatalf("signer: %v", err)
		}
		signers[i] = s
		idents[ids[i]] = s.Identity
	}
	for i := 0; i < n; i++ {
		id := ids[i]
		v := NewValidator(Config{
			ID:             id,
			Validators:     ids,
			Signer:         signers[i],
			Identities:     idents,
			Sender:         NewBus(endpoints[i], "main"),
			RequestTimeout: timeout,
			Deliver: func(seq uint64, payload []byte) {
				h.mu.Lock()
				h.delivered[id] = append(h.delivered[id], string(payload))
				h.mu.Unlock()
			},
		})
		h.validators = append(h.validators, v)
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

func (h *busHarness) waitDelivered(i, want int, timeout time.Duration) []string {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		h.mu.Lock()
		got := append([]string(nil), h.delivered[h.endpoints[i].ID()]...)
		h.mu.Unlock()
		if len(got) >= want {
			return got
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("validator %d delivered %v, want %d payloads", i, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBusConsensusOverInProcTransport(t *testing.T) {
	hub := transport.NewInProcNet(nil, nil)
	endpoints := make([]transport.Transport, 4)
	for i := range endpoints {
		endpoints[i] = hub.Node(fmt.Sprintf("v%d", i))
	}
	h := newBusHarness(t, endpoints, time.Second)
	h.validators[0].Propose([]byte("tx-1"))
	h.validators[2].Propose([]byte("tx-2"))
	var want []string
	for i := 0; i < 4; i++ {
		got := h.waitDelivered(i, 2, 5*time.Second)
		if i == 0 {
			want = got
			continue
		}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("divergent delivery: v0=%v v%d=%v", want, i, got)
		}
	}
}

func TestBusConsensusOverTCP(t *testing.T) {
	const n = 4
	ids := make([]string, n)
	tcps := make([]*transport.TCP, n)
	for i := range tcps {
		ids[i] = fmt.Sprintf("v%d", i)
		tr, err := transport.NewTCP(transport.TCPConfig{ID: ids[i], Cluster: "bus-test", Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("tcp %d: %v", i, err)
		}
		tcps[i] = tr
	}
	endpoints := make([]transport.Transport, n)
	for i, tr := range tcps {
		for j, other := range tcps {
			if i != j {
				tr.AddPeer(ids[j], other.Addr())
			}
		}
		endpoints[i] = tr
	}
	h := newBusHarness(t, endpoints, 2*time.Second)
	for k := 0; k < 3; k++ {
		h.validators[k%n].Propose([]byte(fmt.Sprintf("tx-%d", k)))
	}
	var want []string
	for i := 0; i < n; i++ {
		got := h.waitDelivered(i, 3, 10*time.Second)
		if i == 0 {
			want = got
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("divergent delivery over tcp: v0=%v v%d=%v", want, i, got)
		}
	}
}
