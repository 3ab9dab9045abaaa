package transport

import (
	"errors"
	"fmt"
	"io"

	"socialchain/internal/walframe"
)

// Wire framing: one message is one walframe frame,
//
//	[4B big-endian payload length][4B IEEE CRC32 of payload][payload]
//
// where the payload is a stream envelope,
//
//	[1B stream-name length][stream name][body]
//
// The CRC covers the whole envelope, so a torn or bit-flipped frame fails
// closed: the reader rejects it and tears down the connection rather than
// dispatching a damaged message. Sealing and parsing are walframe's, the
// code the durable logs use, so there is one framing format and one parser
// in the system; this file holds only the envelope.

// DefaultMaxFrame bounds one wire message (header + envelope). Large enough
// for a full ordering batch (2 MiB cutter default plus JSON overhead) with
// headroom; small enough that a corrupt length field cannot ask the reader
// to allocate gigabytes.
const DefaultMaxFrame = 16 << 20

// EncodeFrame seals a stream envelope into a single wire frame.
func EncodeFrame(stream string, body []byte) ([]byte, error) {
	if len(stream) > 255 {
		return nil, fmt.Errorf("%w: stream name %d bytes (max 255)", ErrFrameCorrupt, len(stream))
	}
	frame := make([]byte, walframe.HeaderLen+1+len(stream)+len(body))
	frame[walframe.HeaderLen] = byte(len(stream))
	copy(frame[walframe.HeaderLen+1:], stream)
	copy(frame[walframe.HeaderLen+1+len(stream):], body)
	walframe.Seal(frame)
	return frame, nil
}

// decodeEnvelope splits a CRC-verified payload into stream name and body.
func decodeEnvelope(payload []byte) (stream string, body []byte, err error) {
	if len(payload) < 1 {
		return "", nil, fmt.Errorf("%w: empty envelope", ErrFrameCorrupt)
	}
	n := int(payload[0])
	if len(payload)-1 < n {
		return "", nil, fmt.Errorf("%w: envelope shorter than stream name", ErrFrameCorrupt)
	}
	return string(payload[1 : 1+n]), payload[1+n:], nil
}

// wireError maps a walframe parse failure onto the connection's errors.
func wireError(err error) error {
	switch {
	case errors.Is(err, walframe.ErrTooLong):
		return fmt.Errorf("%w: %v", ErrFrameTooLarge, err)
	case errors.Is(err, walframe.ErrChecksum):
		return fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
	case errors.Is(err, walframe.ErrTruncated):
		return fmt.Errorf("transport: %v: %w", err, io.ErrUnexpectedEOF)
	}
	return err
}

// ReadFrame reads and verifies one frame from r, returning the stream name
// and message body, which is the caller's to keep. Errors are terminal for
// the connection: io.EOF at a frame boundary is a clean shutdown,
// io.ErrUnexpectedEOF a truncation, ErrFrameTooLarge / ErrFrameCorrupt a
// protocol violation.
func ReadFrame(r io.Reader, maxFrame int) (stream string, body []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	payload, err := walframe.Read(r, nil, int64(maxFrame))
	if err != nil {
		return "", nil, wireError(err)
	}
	return decodeEnvelope(payload)
}

// DecodeFrame parses one frame from the front of data, returning the stream
// name, body, and the offset just past the frame. It is the slice-oriented
// twin of ReadFrame used by tests to sweep corruption offsets. A whole
// frame over maxFrame is ErrFrameTooLarge; a frame cut short is a
// truncation, whatever length its header claims.
func DecodeFrame(data []byte, maxFrame int) (stream string, body []byte, next int, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	payload, next, err := walframe.Next(data, 0)
	if err != nil {
		return "", nil, 0, wireError(err)
	}
	if next > maxFrame {
		return "", nil, 0, fmt.Errorf("%w: frame %d bytes (max %d)", ErrFrameTooLarge, next, maxFrame)
	}
	stream, body, err = decodeEnvelope(payload)
	if err != nil {
		return "", nil, 0, err
	}
	return stream, body, next, nil
}
