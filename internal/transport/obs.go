package transport

import "socialchain/internal/obs"

// Register publishes t's traffic counters into an obs registry, so the
// per-test accounting that already existed becomes scrapeable at
// /metrics (the counters stay where they are — the registry samples
// them), and for a TCP endpoint the frames its send queues hold.
func Register(t Transport, reg *obs.Registry) {
	c := t.Counters()
	reg.CounterFunc("transport_bytes_sent_total", "Bytes written to the wire.", c.BytesSent.Load)
	reg.CounterFunc("transport_bytes_recv_total", "Bytes read from the wire.", c.BytesRecv.Load)
	reg.CounterFunc("transport_frames_sent_total", "Frames written to the wire.", c.FramesSent.Load)
	reg.CounterFunc("transport_frames_recv_total", "Frames read from the wire.", c.FramesRecv.Load)
	reg.CounterFunc("transport_reconnects_total", "Connections (re)established to peers.", c.Reconnects.Load)
	reg.CounterFunc("transport_drops_total", "Messages dropped: backpressure, missing handlers, torn connections.", c.Drops.Load)
	if tcp, ok := t.(*TCP); ok {
		reg.GaugeFunc("transport_send_queue_frames", "Frames queued for peers and not yet written: a peer falling behind holds more.", func() float64 {
			n := 0
			for _, d := range tcp.QueueDepths() {
				n += d
			}
			return float64(n)
		})
	}
}

// QueueDepths samples every peer's send-queue depth in frames — the
// backpressure picture /statusz reports.
func (t *TCP) QueueDepths() map[string]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]int, len(t.peers))
	for id, p := range t.peers {
		out[id] = p.queue.Len()
	}
	return out
}

// ConnectedPeers counts peers with a live connection right now, the
// /healthz connectivity signal.
func (t *TCP) ConnectedPeers() int {
	t.mu.RLock()
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.RUnlock()
	n := 0
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			n++
		}
		p.mu.Unlock()
	}
	return n
}
