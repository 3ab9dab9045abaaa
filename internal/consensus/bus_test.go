package consensus

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"socialchain/internal/msp"
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

// TestBusFullInboxDrops pins the inbox bound: inboxSize messages queue,
// the next is refused with ErrBackpressure and counted as a drop by the
// receiving endpoint, and a stopped replica's bus accepts nothing.
func TestBusFullInboxDrops(t *testing.T) {
	hub := transport.NewInProcNet(nil, nil)
	from, to := hub.Node("v0"), hub.Node("v1")
	bus := NewBus(to, "main")
	frame := (&Message{Type: MsgRequest, From: "v0", Payload: []byte("x")}).Encode()
	for i := 0; i < inboxSize; i++ {
		if err := from.Send("v1", bus.stream, frame); err != nil {
			t.Fatalf("message %d refused: %v", i, err)
		}
	}
	if err := from.Send("v1", bus.stream, frame); !errors.Is(err, transport.ErrBackpressure) {
		t.Fatalf("message past the bound: %v, want ErrBackpressure", err)
	}
	if got := to.Counters().Drops.Load(); got != 1 {
		t.Fatalf("%d drops counted, want 1", got)
	}
	if got := bus.inbox.Len(); got != inboxSize {
		t.Fatalf("inbox holds %d, want %d", got, inboxSize)
	}

	signer, err := msp.NewSigner("org", "v1", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator(Config{ID: "v1", Validators: []string{"v0", "v1"}, Signer: signer,
		Identities: map[string]msp.Identity{"v1": signer.Identity}, Sender: bus})
	v.Start()
	v.Stop()
	if err := from.Send("v1", bus.stream, frame); !errors.Is(err, transport.ErrBackpressure) {
		t.Fatalf("message after Stop: %v, want ErrBackpressure", err)
	}
	if got := bus.inbox.Len(); got != 0 {
		t.Fatalf("a stopped replica's inbox holds %d messages", got)
	}
}

// TestQueuesAllocateNoBound: building a bus, a validator and a TCP peer
// allocates for what they hold, not for their bounds (an inbox of
// inboxSize messages, maxProposals proposals, QueueLen frames).
func TestQueuesAllocateNoBound(t *testing.T) {
	const most = 8 << 10
	allocated := func(fn func()) uint64 {
		least := ^uint64(0)
		for try := 0; try < 3; try++ { // the least of three: nothing else's allocations
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	hub := transport.NewInProcNet(nil, nil)
	var bus *Bus
	if n := allocated(func() { bus = NewBus(hub.Node("v0"), "main") }); n >= most {
		t.Errorf("NewBus allocated %d B, want < %d", n, most)
	}
	signer, err := msp.NewSigner("org", "v0", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ID: "v0", Validators: []string{"v0"}, Signer: signer,
		Identities: map[string]msp.Identity{"v0": signer.Identity}, Sender: bus}
	if n := allocated(func() { NewValidator(cfg) }); n >= most {
		t.Errorf("NewValidator allocated %d B, want < %d", n, most)
	}
	tr, err := transport.NewTCP(transport.TCPConfig{ID: "a", Cluster: "alloc"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	peer := 0
	if n := allocated(func() { peer++; tr.AddPeer(fmt.Sprintf("p%d", peer), "") }); n >= most {
		t.Errorf("TCP.AddPeer allocated %d B, want < %d", n, most)
	}
}
