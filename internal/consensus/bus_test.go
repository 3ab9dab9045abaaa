package consensus

import (
	"fmt"
	"testing"
	"time"

	"socialchain/internal/transport"
)

// TestBusConsensusOverTCP runs the harness over real loopback sockets: every
// message is encoded, framed, CRC-checked and decoded as it is between
// separate processes.
func TestBusConsensusOverTCP(t *testing.T) {
	const n = 4
	tcps := make([]*transport.TCP, n)
	for i := range tcps {
		tr, err := transport.NewTCP(transport.TCPConfig{ID: fmt.Sprintf("v%d", i), Cluster: "bus-test", Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("tcp %d: %v", i, err)
		}
		tcps[i] = tr
	}
	endpoints := make([]transport.Transport, n)
	for i, tr := range tcps {
		for j, other := range tcps {
			if i != j {
				tr.AddPeer(other.ID(), other.Addr())
			}
		}
		endpoints[i] = tr
	}
	h := newHarnessOn(t, endpoints, nil, 2*time.Second, nil)
	for k := 0; k < 3; k++ {
		h.validators[k%n].Propose([]byte(fmt.Sprintf("tx-%d", k)))
	}
	for i := 0; i < n; i++ {
		if !h.waitDelivered(i, 3, 10*time.Second) {
			t.Fatalf("validator %d delivered %v, want 3 payloads", i, h.deliveredAt(i))
		}
	}
	want := fmt.Sprint(h.deliveredAt(0))
	for i := 1; i < n; i++ {
		if got := fmt.Sprint(h.deliveredAt(i)); got != want {
			t.Fatalf("divergent delivery over tcp: v0=%s v%d=%s", want, i, got)
		}
	}
}
