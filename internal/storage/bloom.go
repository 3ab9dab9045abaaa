package storage

// Bloom filters let the LSM engine answer most negative Gets without a
// disk read: each SSTable carries one filter over its key set, and a
// lookup probes the filter before touching any block. A filter miss is
// definitive ("key not in this table"); a hit means "maybe", and the
// block read settles it. Sizing is the classic ~10 bits per key with 7
// probes, giving a false-positive rate under 1%.
//
// Probes use the Kirsch–Mitzenmacher double-hashing scheme over a single
// 64-bit FNV-1a key hash: probe i tests bit (h1 + i*h2) mod nbits. The
// construction is fully deterministic — filters written by one process
// validate in any other — which the multiprocess deployment relies on.

import (
	"encoding/binary"
	"errors"
)

var errBadBloom = errors.New("bad bloom filter block")

const (
	bloomBitsPerKey = 10
	bloomProbes     = 7
)

// bloomHash is the 64-bit FNV-1a key hash every filter operation derives
// its probe sequence from (computed once per lookup, shared across tables;
// inlined to avoid a hash.Hash allocation per lookup).
func bloomHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// bloomFilter is an immutable bit set over a table's key hashes.
type bloomFilter struct {
	bits  []byte
	nbits uint64
}

// buildBloom constructs a filter containing every hash in hashes.
func buildBloom(hashes []uint64) bloomFilter {
	nbits := uint64(len(hashes)) * bloomBitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	b := bloomFilter{bits: make([]byte, (nbits+7)/8), nbits: nbits}
	for _, h := range hashes {
		h1, h2 := h, (h>>17)|1
		for i := uint64(0); i < bloomProbes; i++ {
			bit := (h1 + i*h2) % b.nbits
			b.bits[bit/8] |= 1 << (bit % 8)
		}
	}
	return b
}

// mayContain reports whether the filter could contain the key behind h.
// False is definitive; true requires a block read to confirm.
func (b bloomFilter) mayContain(h uint64) bool {
	if b.nbits == 0 {
		return true // empty filter block: cannot rule anything out
	}
	h1, h2 := h, (h>>17)|1
	for i := uint64(0); i < bloomProbes; i++ {
		bit := (h1 + i*h2) % b.nbits
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// encode serialises the filter for the SSTable's bloom block.
func (b bloomFilter) encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, b.nbits)
	return append(dst, b.bits...)
}

// decodeBloom parses a filter from a bloom block payload. An empty
// payload decodes to the zero filter (mayContain always true).
func decodeBloom(data []byte) (bloomFilter, error) {
	if len(data) == 0 {
		return bloomFilter{}, nil
	}
	nbits, n := binary.Uvarint(data)
	if n <= 0 {
		return bloomFilter{}, errBadBloom
	}
	bits := data[n:]
	if uint64(len(bits)) != (nbits+7)/8 {
		return bloomFilter{}, errBadBloom
	}
	return bloomFilter{bits: bits, nbits: nbits}, nil
}
