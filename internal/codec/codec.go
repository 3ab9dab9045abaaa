// Package codec is the one canonical binary encoding of the chain's data
// model: what a block, a transaction, a read/write set, a consensus
// message or an RPC envelope is when it becomes bytes — on the wire, in
// the block log, under a Merkle leaf or under a signature. It is the
// walframe / transport.Frame idiom carried one level down: lengths are
// unsigned varints, byte strings are a length followed by the raw bytes,
// hashes are 32 raw bytes, times are 8 big-endian bytes of UnixNano.
//
// There is no reflection and no registry: each type lays its own fields
// out with the Append functions and reads them back through a Reader, in
// the same order, in a pair of methods that live on the type. The
// encoding is deterministic (one value, one byte string) and the Reader
// accepts only what the Append functions produce, so a decoded value
// re-encodes to the bytes it came from.
package codec

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"
)

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendBytes appends v's length and then v. Nil and empty encode alike.
func AppendBytes(b, v []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

// AppendString appends s's length and then s.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendTime appends t as 8 big-endian bytes of UnixNano, so the location
// and the monotonic reading do not reach the encoding. The zero Time,
// whose UnixNano is undefined, is written as 0 and read back as the zero
// Time.
func AppendTime(b []byte, t time.Time) []byte {
	var n int64
	if !t.IsZero() {
		n = t.UnixNano()
	}
	return binary.BigEndian.AppendUint64(b, uint64(n))
}

// DecodeHex fills dst from text, the form fixed-width values (hashes, key
// fingerprints) take in JSON views of the chain. Anything but exactly
// len(dst) bytes of hex is an error: a fixed-width value has no short form.
func DecodeHex(dst, text []byte) error {
	if hex.DecodedLen(len(text)) != len(dst) {
		return fmt.Errorf("codec: %q is not %d hex digits", text, 2*len(dst))
	}
	_, err := hex.Decode(dst, text)
	return err
}

var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Scratch lends fn an empty buffer to append an encoding to and finish
// with before it returns — hash it, measure it, copy it out at its final
// size. Whatever fn returns (the buffer, grown or not) is kept for the
// next borrower, so an encoding of hundreds of kilobytes stops paying for
// append's doublings every time it is produced.
func Scratch(fn func(b []byte) []byte) {
	p := scratch.Get().(*[]byte)
	*p = fn((*p)[:0])
	scratch.Put(p)
}

// Encode returns what appendTo — typically a value's AppendTo method —
// appends to an empty buffer, built in a Scratch buffer and copied out at
// its exact size: no spare capacity rides along with bytes that are kept.
func Encode(appendTo func([]byte) []byte) (out []byte) {
	Scratch(func(b []byte) []byte {
		b = appendTo(b)
		out = append([]byte(nil), b...)
		return b
	})
	return out
}

// ErrCorrupt is wrapped by every Reader failure.
var ErrCorrupt = errors.New("codec: corrupt encoding")

// Reader consumes an encoding front to back. The first failure sticks:
// every later read returns a zero value, so a decoder reads all its fields
// and checks Err (or Done) once. Nothing read aliases the input.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads from b, which it does not modify.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Fail records a decoder's own complaint about what it read.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes of the input, or nil after a failure.
func (r *Reader) take(n uint64) []byte {
	if r.err == nil && n > uint64(len(r.b)) {
		r.Fail("%d bytes wanted, %d left", n, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Uvarint reads an unsigned varint in its shortest form.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads the length of a list whose items take at least min (>= 1)
// bytes each. A count the rest of the input cannot hold fails here, before
// the caller allocates for it.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/min) {
		r.Fail("list of %d items in %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

// Bytes reads a byte string into a copy; an empty one reads as nil.
func (r *Reader) Bytes() []byte {
	if b := r.take(r.Uvarint()); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

// String reads a string.
func (r *Reader) String() string { return string(r.take(r.Uvarint())) }

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail("bool byte %#x", b)
	}
	return b == 1
}

// Raw reads len(dst) raw bytes — a fixed-width field — into dst.
func (r *Reader) Raw(dst []byte) { copy(dst, r.take(uint64(len(dst)))) }

// Hash reads 32 raw bytes.
func (r *Reader) Hash() (h [32]byte) {
	r.Raw(h[:])
	return h
}

// Time reads what AppendTime wrote, in UTC.
func (r *Reader) Time() time.Time {
	b := r.take(8)
	if b == nil {
		return time.Time{}
	}
	if n := int64(binary.BigEndian.Uint64(b)); n != 0 {
		return time.Unix(0, n).UTC()
	}
	return time.Time{}
}

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or an error when input is left over: a
// whole value must account for every byte it was given.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}
