// Package walframe is the shared record framing of the repo's durable
// logs — the storage engine's WAL segments/snapshots and the ledger's
// block log. One frame is:
//
//	[4B big-endian payload length][4B IEEE CRC32 of payload][payload]
//
// An empty payload is a legal frame (the sstable writes one for an absent
// bloom filter), but it is no evidence of one: eight zero bytes — which
// binary payloads and zero-filled file tails both contain — parse as
// length 0 with the CRC32 of nothing. The torn-tail scan therefore counts
// only non-empty frames, and no log appends an empty record.
//
// The framing is what makes crash recovery decidable: a frame either
// parses completely with a matching CRC or it does not, and HasValidFrame
// lets a reader discriminate a torn tail (nothing valid after the
// damage; safe to truncate) from mid-log corruption (committed frames
// follow; must fail loudly). Both logs share this code precisely so the
// discriminator cannot drift between them.
package walframe

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// HeaderLen is the fixed frame-header size.
const HeaderLen = 8

// Seal fills in the length+CRC header of frame, whose payload starts at
// HeaderLen (the caller reserved the first HeaderLen bytes). Building
// payloads in place and sealing keeps the append path copy-free.
func Seal(frame []byte) {
	payload := frame[HeaderLen:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// Next parses the frame beginning at data[off:], returning its payload
// (aliasing data) and the offset just past it. A short or CRC-mismatched
// frame is an error; the caller decides torn-vs-corrupt via
// HasValidFrame on the remainder.
func Next(data []byte, off int) (payload []byte, next int, err error) {
	if len(data)-off < HeaderLen {
		return nil, off, fmt.Errorf("walframe: truncated header at offset %d", off)
	}
	n := int(binary.BigEndian.Uint32(data[off:]))
	sum := binary.BigEndian.Uint32(data[off+4:])
	if n < 0 || len(data)-off-HeaderLen < n {
		return nil, off, fmt.Errorf("walframe: truncated body at offset %d", off)
	}
	payload = data[off+HeaderLen : off+HeaderLen+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, off, fmt.Errorf("walframe: crc mismatch at offset %d", off)
	}
	return payload, off + HeaderLen + n, nil
}

// Read reads the frame r is positioned at into buf (grown when too
// small) and returns its CRC-checked payload, which aliases the buffer.
// max is how many bytes r can still supply; a header promising more is a
// truncated frame, not an allocation. io.EOF means r ended exactly on a
// frame boundary.
func Read(r io.Reader, buf []byte, max int64) (payload []byte, err error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("walframe: truncated header: %w", err)
	}
	n := int64(binary.BigEndian.Uint32(hdr[0:4]))
	if n > max-HeaderLen {
		return nil, fmt.Errorf("walframe: truncated body: frame of %d bytes with %d left", n, max-HeaderLen)
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("walframe: truncated body: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("walframe: crc mismatch")
	}
	return payload, nil
}

// HasValidFrame reports whether any offset of data parses as a complete,
// non-empty, CRC-valid frame — the discriminator between a torn tail and
// mid-log corruption. A false positive needs a 2^-32 CRC coincidence, so
// a hit is taken as evidence of a once-committed frame; an empty frame
// needs no coincidence at all (eight zero bytes) and is not counted.
func HasValidFrame(data []byte) bool {
	for off := 0; off+HeaderLen <= len(data); off++ {
		if p, _, err := Next(data, off); err == nil && len(p) > 0 {
			return true
		}
	}
	return false
}

// RecoverTail repairs a log file whose frames parsed cleanly up to offset
// at, given rest, the file's bytes from at to its end: a genuine torn
// tail (no complete CRC-valid frame after the failure point) is truncated
// away; anything else is mid-log corruption and an error — committed
// frames are never silently destroyed. Every durable log routes its
// truncate-or-fail decision through here so it cannot drift between
// them; a reader that streams its frames passes only the unparsed
// remainder.
func RecoverTail(path string, rest []byte, at int64) error {
	if len(rest) == 0 {
		return nil
	}
	if HasValidFrame(rest[1:]) {
		return fmt.Errorf("walframe: %s corrupt at offset %d with committed frames after it", path, at)
	}
	if err := os.Truncate(path, at); err != nil {
		return fmt.Errorf("walframe: truncate torn tail of %s: %w", path, err)
	}
	return nil
}
