// Package walframe is the one record framing of the repo — the storage
// engine's tables and manifest, the block logs in front of it (the
// ledger's and an IPFS node's: Log) and the TCP wire — and the one scan
// that tells where a log ends. One frame is:
//
//	[4B big-endian payload length][4B IEEE CRC32 of payload][payload]
//
// The framing is what makes crash recovery decidable: a frame either
// parses completely with a matching CRC or it does not. Recover is the
// only code that walks a log's frames to find its end, and it applies
// one rule, for every log:
//
//   - An empty or failed frame is damage, never a record. An empty payload
//     is a legal frame (the sstable writes one for an absent bloom filter)
//     but no evidence of a committed record: eight zero bytes — which
//     binary payloads and zero-filled file tails both contain — parse as
//     length 0 with the CRC32 of nothing. No log appends an empty record.
//   - Damage followed by any complete, non-empty, CRC-valid frame is
//     mid-log corruption: committed frames follow, and the scan fails
//     without touching the file.
//   - Any other damage is a torn tail — the process died mid-append — and
//     is cut when the caller allows it (the live end of a log) and an
//     error when it does not.
package walframe

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// HeaderLen is the fixed frame-header size.
const HeaderLen = 8

// The ways a frame fails to parse. To a log each is damage; the wire maps
// them onto its own errors.
var (
	// ErrTruncated: the bytes end inside the frame.
	ErrTruncated = errors.New("walframe: truncated frame")
	// ErrTooLong: the header promises more bytes than the reader allows.
	ErrTooLong = errors.New("walframe: frame longer than its bound")
	// ErrChecksum: the payload does not match its CRC.
	ErrChecksum = errors.New("walframe: crc mismatch")
)

// ErrLost reports a log shorter than the offset its caller vouched for:
// frames once committed are gone.
var ErrLost = errors.New("walframe: committed frames lost")

// Seal fills in the length+CRC header of frame, whose payload starts at
// HeaderLen (the caller reserved the first HeaderLen bytes). Building
// payloads in place and sealing keeps the append path copy-free.
func Seal(frame []byte) {
	payload := frame[HeaderLen:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// Next parses the frame beginning at data[off:], returning its payload
// (aliasing data) and the offset just past it. A short frame is
// ErrTruncated, a damaged one ErrChecksum, both bare: Next allocates
// nothing, so the corruption check can try it at every offset.
func Next(data []byte, off int) (payload []byte, next int, err error) {
	if len(data)-off < HeaderLen {
		return nil, off, ErrTruncated
	}
	n := int(binary.BigEndian.Uint32(data[off:]))
	sum := binary.BigEndian.Uint32(data[off+4:])
	if n < 0 || len(data)-off-HeaderLen < n {
		return nil, off, ErrTruncated
	}
	payload = data[off+HeaderLen : off+HeaderLen+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, off, ErrChecksum
	}
	return payload, off + HeaderLen + n, nil
}

// Read reads the frame r is positioned at into buf (grown when too
// small) and returns its CRC-checked payload, which aliases the buffer.
// max bounds the whole frame: a header promising more is ErrTooLong, not
// an allocation. io.EOF means r ended exactly on a frame boundary; r
// ending inside the frame is ErrTruncated; any other error is r's own.
func Read(r io.Reader, buf []byte, max int64) (payload []byte, err error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: header", ErrTruncated)
		}
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[0:4]))
	if n > max-HeaderLen {
		return nil, fmt.Errorf("%w: payload of %d bytes with %d allowed", ErrTooLong, n, max-HeaderLen)
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: body", ErrTruncated)
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, ErrChecksum
	}
	return payload, nil
}

// Recover finds where the log in f ends. It reads the frames from offset
// from — the caller vouches for the bytes below it — and hands each to fn
// with its offset; the payload aliases a buffer the next frame reuses. It
// returns the offset just past the last frame. Damage after it is cut
// when it is a torn tail and truncate is set; otherwise Recover fails and
// f is left as it was, as it is when fn fails (fn's error is returned
// unwrapped). See the package doc for the rule.
func Recover(f *os.File, from int64, truncate bool, fn func(off int64, payload []byte) error) (end int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return from, fmt.Errorf("walframe: stat %s: %w", f.Name(), err)
	}
	size := st.Size()
	if size < from {
		return from, fmt.Errorf("%w: %s is %d bytes but its frames reach offset %d", ErrLost, f.Name(), size, from)
	}
	r := bufio.NewReaderSize(io.NewSectionReader(f, from, size-from), int(min(size-from, 1<<16)))
	var buf []byte
	for end = from; end < size; {
		payload, err := Read(r, buf, size-end)
		if err != nil && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrTooLong) && !errors.Is(err, ErrChecksum) {
			return end, fmt.Errorf("walframe: read %s: %w", f.Name(), err)
		}
		if err != nil || len(payload) == 0 {
			break
		}
		buf = payload[:0]
		if err := fn(end, payload); err != nil {
			return end, err
		}
		end += HeaderLen + int64(len(payload))
	}
	if end == size {
		return end, nil
	}
	rest := make([]byte, size-end)
	if _, err := f.ReadAt(rest, end); err != nil {
		return end, fmt.Errorf("walframe: read %s: %w", f.Name(), err)
	}
	if hasValidFrame(rest[1:]) {
		return end, fmt.Errorf("walframe: %s corrupt at offset %d with committed frames after it", f.Name(), end)
	}
	if !truncate {
		return end, fmt.Errorf("walframe: %s torn at offset %d", f.Name(), end)
	}
	if err := f.Truncate(end); err != nil {
		return end, fmt.Errorf("walframe: truncate torn tail of %s: %w", f.Name(), err)
	}
	return end, nil
}

// hasValidFrame reports whether any offset of data parses as a complete,
// non-empty, CRC-valid frame — the discriminator between a torn tail and
// mid-log corruption. A false positive needs a 2^-32 CRC coincidence, so
// a hit is taken as evidence of a once-committed frame; an empty frame
// needs no coincidence at all (eight zero bytes) and is not counted.
func hasValidFrame(data []byte) bool {
	for off := 0; off+HeaderLen <= len(data); off++ {
		if p, _, err := Next(data, off); err == nil && len(p) > 0 {
			return true
		}
	}
	return false
}
