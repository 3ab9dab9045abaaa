package transport

import (
	"sync"

	"socialchain/internal/sim"
)

// InProcNet is the hub of an in-process deployment: every endpoint created
// with Node shares it, and delivery is a function call into the receiver's
// handler — today's deterministic sim-latency semantics, kept as the
// default test harness. Directed links can be cut and healed for fault
// injection, mirroring the consensus network's partition model.
type InProcNet struct {
	mu      sync.RWMutex
	latency sim.LatencyModel
	clock   sim.Clock
	nodes   map[string]*InProc
	cut     map[string]map[string]bool // cut[a][b]: drop messages a->b
}

// NewInProcNet creates an in-process transport hub. A nil latency model
// delivers immediately; a nil clock uses wall time for delayed delivery.
func NewInProcNet(latency sim.LatencyModel, clock sim.Clock) *InProcNet {
	if latency == nil {
		latency = sim.ZeroLatency{}
	}
	if clock == nil {
		clock = sim.RealClock{}
	}
	return &InProcNet{
		latency: latency,
		clock:   clock,
		nodes:   make(map[string]*InProc),
		cut:     make(map[string]map[string]bool),
	}
}

// Node returns the endpoint for id, creating it on first use. A closed
// endpoint's id can be re-registered (peer restart).
func (n *InProcNet) Node(id string) *InProc {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.nodes[id]; ok {
		return p
	}
	p := &InProc{net: n, id: id, handlers: make(map[string]Handler)}
	n.nodes[id] = p
	return p
}

// Cut severs the directed link from a to b: sends are silently dropped
// (counted on the sender), matching real-partition semantics where the
// sender cannot tell.
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

// InProc is one endpoint of an InProcNet. It implements Transport.
type InProc struct {
	net *InProcNet
	id  string

	mu       sync.RWMutex
	handlers map[string]Handler
	closed   bool
	ctr      Counters
}

// ID implements Transport.
func (p *InProc) ID() string { return p.id }

// Counters implements Transport.
func (p *InProc) Counters() *Counters { return &p.ctr }

// Handle implements Transport.
func (p *InProc) Handle(stream string, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handlers[stream] = h
}

// Peers implements Transport.
func (p *InProc) Peers() []string {
	p.net.mu.RLock()
	defer p.net.mu.RUnlock()
	out := make([]string, 0, len(p.net.nodes)-1)
	for id := range p.net.nodes {
		if id != p.id {
			out = append(out, id)
		}
	}
	return out
}

// Close implements Transport. The endpoint deregisters from the hub and
// drops its handlers; messages in flight to it are dropped.
func (p *InProc) Close() error {
	p.mu.Lock()
	p.closed = true
	clear(p.handlers)
	p.mu.Unlock()
	p.net.mu.Lock()
	if p.net.nodes[p.id] == p {
		delete(p.net.nodes, p.id)
	}
	p.net.mu.Unlock()
	return nil
}

// Send implements Transport. Zero-latency delivery is a synchronous call
// into the receiver's handler, so a handler's ErrBackpressure propagates to
// the sender; delayed delivery happens on a goroutine after the simulated
// latency, and failures there are counted as drops (the sender has already
// moved on, exactly like a wire).
func (p *InProc) Send(to, stream string, payload []byte) error {
	p.mu.RLock()
	closed := p.closed
	p.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	p.net.mu.RLock()
	dst, ok := p.net.nodes[to]
	cutoff := p.net.cut[p.id][to]
	p.net.mu.RUnlock()
	if !ok {
		return ErrUnknownPeer
	}
	if cutoff {
		p.ctr.Drops.Inc()
		return nil
	}
	p.ctr.FramesSent.Inc()
	p.ctr.BytesSent.Add(int64(len(payload)))
	if d := p.net.latency.Delay(p.id, to); d > 0 {
		go func() {
			p.net.clock.Sleep(d)
			if err := dst.deliver(p.id, stream, payload); err != nil {
				p.ctr.Drops.Inc()
			}
		}()
		return nil
	}
	return dst.deliver(p.id, stream, payload)
}

func (p *InProc) deliver(from, stream string, payload []byte) error {
	p.mu.RLock()
	h := p.handlers[stream]
	closed := p.closed
	p.mu.RUnlock()
	if closed || h == nil {
		p.ctr.Drops.Inc()
		return nil
	}
	p.ctr.FramesRecv.Inc()
	p.ctr.BytesRecv.Add(int64(len(payload)))
	if err := h(from, payload); err != nil {
		p.ctr.Drops.Inc()
		return err
	}
	return nil
}
