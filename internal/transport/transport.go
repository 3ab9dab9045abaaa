// Package transport is the message-passing seam of the deployment: every
// byte that crosses between peers — consensus votes, ordering delivery,
// endorsement/gateway RPC — moves through the Transport interface. Two
// implementations exist:
//
//   - InProc: deterministic in-process delivery over sim latency injection,
//     the default test harness. Function calls, no serialization beyond the
//     caller's own encoding, directed-link fault injection (Cut/Heal).
//   - TCP: real sockets. Length-prefixed CRC-framed messages (the walframe
//     layout), a hello handshake carrying cluster + node identity, one
//     write pump per peer over a bounded send queue, and reconnect with
//     exponential backoff.
//
// Messages to one peer on one transport are ordered; messages are not
// acknowledged. A full send queue surfaces as ErrBackpressure rather than
// blocking — loss-tolerant protocols (consensus) drop, request/response
// callers (RPC) time out and retry. Byte/frame/reconnect/drop counts are
// exposed per endpoint via metrics counters.
package transport

import (
	"errors"
	"fmt"

	"socialchain/internal/metrics"
)

// Kind names a transport implementation; it is the value of the fabric and
// core config transport knobs.
type Kind string

const (
	// KindInProc is deterministic in-process delivery (the default).
	KindInProc Kind = "inproc"
	// KindTCP is real sockets on localhost or beyond.
	KindTCP Kind = "tcp"
)

// ParseKind validates a transport knob value. The empty string resolves to
// KindInProc so untouched configs keep today's behavior.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindInProc:
		return KindInProc, nil
	case KindTCP:
		return KindTCP, nil
	default:
		return "", fmt.Errorf("transport: unknown kind %q (valid: inproc, tcp)", s)
	}
}

// Typed transport errors. Callers branch with errors.Is.
var (
	// ErrBackpressure reports a full bounded send queue (TCP) or a full
	// receiver inbox (InProc handlers may return it). The message was
	// dropped, not queued.
	ErrBackpressure = errors.New("transport: send queue full")
	// ErrUnknownPeer reports a destination absent from the peer set.
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrFrameTooLarge reports a frame exceeding the configured bound; the
	// connection that produced it is torn down.
	ErrFrameTooLarge = errors.New("transport: frame too large")
	// ErrFrameCorrupt reports a CRC mismatch or malformed envelope; the
	// connection that produced it is torn down.
	ErrFrameCorrupt = errors.New("transport: frame corrupt")
)

// Handler consumes one inbound message on a stream. Handlers run on the
// delivery path (the reader goroutine for TCP, the sender's goroutine for
// zero-latency InProc) and must be fast and non-blocking; hand off to a
// channel or goroutine for real work. A handler returning ErrBackpressure
// tells the transport the message was dropped at the receiver.
type Handler func(from string, payload []byte) error

// Transport moves opaque payloads between named peers over named streams.
// Per (peer, stream) delivery is ordered; loss is possible (backpressure,
// connection churn) and left to the protocol above to tolerate.
type Transport interface {
	// ID returns this endpoint's node identity.
	ID() string
	// Handle registers the handler for one stream, replacing any previous
	// one. Messages on streams with no handler are dropped (counted).
	Handle(stream string, h Handler)
	// Send enqueues payload for delivery to peer `to` on `stream`. It does
	// not block: a full queue returns ErrBackpressure, an unknown peer
	// ErrUnknownPeer, a closed endpoint ErrClosed.
	Send(to, stream string, payload []byte) error
	// Peers lists the currently known remote peer IDs.
	Peers() []string
	// Counters exposes this endpoint's traffic counters.
	Counters() *Counters
	// Close shuts the endpoint down and releases its connections.
	Close() error
}

// Counters is the per-endpoint traffic accounting: bytes and frames in each
// direction, (re)connect events, and messages dropped (backpressure, cuts,
// missing handlers, torn connections).
type Counters struct {
	BytesSent  metrics.Counter
	BytesRecv  metrics.Counter
	FramesSent metrics.Counter
	FramesRecv metrics.Counter
	Reconnects metrics.Counter
	Drops      metrics.Counter
}
