package consensus

import (
	"sync"

	"socialchain/internal/sim"
)

// inboxSize bounds each validator's message queue.
const inboxSize = 8192

// Sender carries signed consensus messages between replicas. Two
// implementations exist: *InProcNet passes message pointers between
// in-process validators (deterministic, zero serialization — in-process
// channels and the test harness) and *Bus encodes messages onto a
// transport.Transport stream (real sockets). Loss is acceptable on either:
// PBFT tolerates dropped messages by design, so sends do not report errors.
type Sender interface {
	// Register provisions replica id's inbound queue; NewValidator calls
	// it once with its own ID.
	Register(id string) <-chan *Message
	// Send transmits msg from -> to.
	Send(from, to string, msg *Message)
}

// InProcNet is the in-process Sender between validators, with a pluggable
// latency model and fault injection (partitions, drops).
//
// It and a Bus over transport.InProc are two in-process buses, and they
// stay two while prepares carry the payload: a Bus encodes and decodes
// every message, and every prepare embeds the encoded pre-prepare —
// payload included — as evidence, so each one copies the payload on both
// ends. One 4-validator decision on a 1 MiB payload takes about 26 ms and
// allocates 43 MB over a Bus, against 11 ms and 5.3 MB here (2-vCPU Xeon).
type InProcNet struct {
	mu      sync.RWMutex
	inboxes map[string]chan *Message
	cut     map[string]map[string]bool // cut[a][b]: drop messages a->b
	latency sim.LatencyModel
	clock   sim.Clock
}

// NewInProcNet creates an in-process validator network.
func NewInProcNet(latency sim.LatencyModel, clock sim.Clock) *InProcNet {
	if latency == nil {
		latency = sim.ZeroLatency{}
	}
	if clock == nil {
		clock = sim.RealClock{}
	}
	return &InProcNet{
		inboxes: make(map[string]chan *Message),
		cut:     make(map[string]map[string]bool),
		latency: latency,
		clock:   clock,
	}
}

// Register implements Sender: it creates the inbox for a validator id.
func (n *InProcNet) Register(id string) <-chan *Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	ch := make(chan *Message, inboxSize)
	n.inboxes[id] = ch
	return ch
}

// Cut severs the directed link from a to b (messages silently dropped).
func (n *InProcNet) Cut(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cut[a] == nil {
		n.cut[a] = make(map[string]bool)
	}
	n.cut[a][b] = true
}

// Heal restores the directed link from a to b.
func (n *InProcNet) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cut[a] != nil {
		delete(n.cut[a], b)
	}
}

// Send delivers msg from -> to, honouring cuts and latency. Delivery is
// asynchronous; a full inbox drops the message (backpressure as loss, which
// BFT must tolerate anyway).
func (n *InProcNet) Send(from, to string, msg *Message) {
	n.mu.RLock()
	ch, ok := n.inboxes[to]
	cutoff := n.cut[from][to]
	n.mu.RUnlock()
	if !ok || cutoff {
		return
	}
	d := n.latency.Delay(from, to)
	if d <= 0 {
		select {
		case ch <- msg:
		default:
		}
		return
	}
	go func() {
		n.clock.Sleep(d)
		select {
		case ch <- msg:
		default:
		}
	}()
}
