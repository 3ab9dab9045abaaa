package consensus

import "socialchain/internal/transport"

// busStreamPrefix namespaces consensus traffic by channel name on the
// transport endpoint the fabric RPC traffic shares.
const busStreamPrefix = "cns/"

// inboxSize bounds each validator's message queue.
const inboxSize = 8192

// Bus carries one validator's signed consensus messages: it encodes them
// onto a transport.Transport stream and decodes inbound frames into a
// bounded inbox. The endpoint is in-process (transport.InProc, with its
// latency model and cut/heal switchboard) or a real socket
// (transport.TCP, which also carries the fabric RPC traffic); the
// validator cannot tell which. Loss is acceptable: PBFT tolerates dropped
// messages by design, so sends do not report errors, and a frame that
// arrives at an inbox holding inboxSize messages is refused with
// transport.ErrBackpressure, which the transport counts as a drop. The
// inbox holds what is queued, not its bound.
type Bus struct {
	t      transport.Transport
	stream string
	inbox  *transport.Queue[*Message]
}

// NewBus attaches the channel's consensus stream to the endpoint.
func NewBus(t transport.Transport, channel string) *Bus {
	b := &Bus{
		t:      t,
		stream: busStreamPrefix + channel,
		inbox:  transport.NewQueue[*Message](inboxSize),
	}
	t.Handle(b.stream, b.onFrame)
	return b
}

func (b *Bus) onFrame(from string, payload []byte) error {
	m, err := DecodeMessage(payload)
	if err != nil {
		return err // torn/garbled message: counted as a drop by the transport
	}
	if m.From != from {
		return nil // transport identity must match the claimed origin
	}
	if !b.inbox.Push(m) {
		return transport.ErrBackpressure
	}
	return nil
}

// Send encodes msg once and transmits it to every replica in to. Errors
// (backpressure, reconnecting peer) are loss, which the protocol
// tolerates; the transport counts them.
func (b *Bus) Send(msg *Message, to ...string) {
	enc := msg.Encode()
	for _, id := range to {
		_ = b.t.Send(id, b.stream, enc)
	}
}
