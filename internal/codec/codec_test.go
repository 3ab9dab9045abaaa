package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	east := time.FixedZone("east", 5*3600+1800)
	when := time.Date(2026, 9, 26, 14, 0, 0, 123456789, east)
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)
	b = AppendBytes(b, []byte{})
	b = AppendString(b, "héllo")
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = append(b, bytes.Repeat([]byte{7}, 32)...)
	b = AppendTime(b, when)
	b = AppendTime(b, time.Time{})
	b = append(b, 0x2a)

	r := NewReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("uvarint 0 = %d", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("uvarint max = %d", v)
	}
	got := r.Bytes()
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", got)
	}
	got[0] = 9
	if b[12] != 1 { // 1 + 10 varint bytes, then the length
		t.Fatal("Bytes aliases the input")
	}
	if v := r.Bytes(); v != nil {
		t.Fatalf("nil bytes = %v", v)
	}
	if v := r.Bytes(); v != nil {
		t.Fatalf("empty bytes = %#v, want nil", v)
	}
	if v := r.String(); v != "héllo" {
		t.Fatalf("string = %q", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools")
	}
	if h := r.Hash(); h[0] != 7 || h[31] != 7 {
		t.Fatalf("hash = %x", h)
	}
	if v := r.Time(); !v.Equal(when) || v.Location() != time.UTC {
		t.Fatalf("time = %v, want %v in UTC", v, when)
	}
	if v := r.Time(); !v.IsZero() {
		t.Fatalf("zero time = %v", v)
	}
	if err := r.Done(); err == nil {
		t.Fatal("Done ignored a trailing byte")
	}
	if v := r.Byte(); v != 0 {
		t.Fatalf("read %#x after a failure", v)
	}
}

// TestReaderRejects: every malformed primitive fails, the failure is
// ErrCorrupt, it sticks, and later reads return zero values.
func TestReaderRejects(t *testing.T) {
	cases := map[string]struct {
		in   []byte
		read func(*Reader)
	}{
		"short byte":         {nil, func(r *Reader) { r.Byte() }},
		"short hash":         {make([]byte, 31), func(r *Reader) { r.Hash() }},
		"short time":         {make([]byte, 7), func(r *Reader) { r.Time() }},
		"bool 2":             {[]byte{2}, func(r *Reader) { r.Bool() }},
		"unterminated":       {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"padded varint":      {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"65-bit varint":      {append(bytes.Repeat([]byte{0xff}, 9), 0x02), func(r *Reader) { r.Uvarint() }},
		"long bytes":         {[]byte{5, 1, 2}, func(r *Reader) { r.Bytes() }},
		"huge bytes":         {binary.AppendUvarint(nil, math.MaxUint64), func(r *Reader) { r.Bytes() }},
		"huge string":        {binary.AppendUvarint(nil, 1<<40), func(r *Reader) { _ = r.String() }},
		"count over input":   {[]byte{3, 0, 0}, func(r *Reader) { r.Count(1) }},
		"count over min len": {[]byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		"huge count":         {binary.AppendUvarint(nil, 1<<62), func(r *Reader) { r.Count(1) }},
	}
	for name, c := range cases {
		r := NewReader(c.in)
		c.read(r)
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("%s: err = %v", name, r.Err())
		}
		first := r.Err()
		if r.Uvarint() != 0 || r.Bytes() != nil || r.String() != "" || r.Bool() || r.Count(1) != 0 || !r.Time().IsZero() || r.Done() != first {
			t.Fatalf("%s: reads after the failure returned values or replaced the error", name)
		}
	}
	if r := NewReader([]byte{2, 0, 0}); r.Count(1) != 2 || r.Err() != nil {
		t.Fatal("a count the input can hold was refused")
	}
}

// TestEncodeOwnsItsResult: what Encode returns is not the scratch buffer
// the next encoding is built in, and carries no doubling's worth of spare
// capacity.
func TestEncodeOwnsItsResult(t *testing.T) {
	big := bytes.Repeat([]byte{0xab}, 100_000)
	first := Encode(func(b []byte) []byte { return AppendBytes(b, big) })
	second := Encode(func(b []byte) []byte { return AppendBytes(b, bytes.Repeat([]byte{0xcd}, 100_000)) })
	if r := NewReader(first); !bytes.Equal(r.Bytes(), big) || r.Done() != nil {
		t.Fatal("the second encoding overwrote the first")
	}
	if len(second) != len(first) || cap(first) > len(first)+len(first)/8 {
		t.Fatalf("encoding of %d bytes has capacity %d", len(first), cap(first))
	}
}
