package consensus

import (
	"socialchain/internal/transport"
)

// busStreamPrefix namespaces consensus traffic by channel name on the
// transport endpoint the fabric RPC traffic shares.
const busStreamPrefix = "cns/"

// Bus is the wire-backed Sender: it encodes messages onto a
// transport.Transport stream and decodes inbound frames into a bounded
// inbox with the same drop-on-full loss semantics as InProcNet. One Bus
// serves one validator; the underlying endpoint also carries the fabric
// RPC traffic.
type Bus struct {
	t      transport.Transport
	stream string
	inbox  chan *Message
}

// NewBus attaches the channel's consensus stream to the endpoint.
func NewBus(t transport.Transport, channel string) *Bus {
	b := &Bus{
		t:      t,
		stream: busStreamPrefix + channel,
		inbox:  make(chan *Message, inboxSize),
	}
	t.Handle(b.stream, b.onFrame)
	return b
}

// Register implements Sender: the bus is per-replica, so every id maps to
// its one inbox.
func (b *Bus) Register(string) <-chan *Message { return b.inbox }

func (b *Bus) onFrame(from string, payload []byte) error {
	m, err := DecodeMessage(payload)
	if err != nil {
		return err // torn/garbled message: counted as a drop by the transport
	}
	if m.From != from {
		return nil // transport identity must match the claimed origin
	}
	select {
	case b.inbox <- m:
		return nil
	default:
		return transport.ErrBackpressure
	}
}

// Send implements Sender. Errors (backpressure, reconnecting peer) are
// loss, which the protocol tolerates; the transport counts them.
func (b *Bus) Send(from, to string, msg *Message) {
	if to == b.t.ID() {
		return
	}
	_ = b.t.Send(to, b.stream, msg.Encode())
}
