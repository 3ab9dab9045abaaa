package cid

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// Codec identifies how the addressed bytes should be interpreted.
const (
	// CodecRaw addresses an opaque byte block (a leaf chunk).
	CodecRaw uint64 = 0x55
	// CodecDagNode addresses an interior Merkle-DAG node in this module's
	// deterministic node encoding (analogous to dag-pb).
	CodecDagNode uint64 = 0x70
)

// Cid is an immutable content identifier: version, codec, multihash.
// The zero value is the "undefined" CID.
type Cid struct {
	version uint64
	codec   uint64
	mh      string // multihash bytes; string so Cid is comparable/map-key safe
}

// Undef is the zero, undefined CID.
var Undef = Cid{}

// New assembles a CIDv1 from a codec and multihash.
func New(codec uint64, mh Multihash) Cid {
	return Cid{version: 1, codec: codec, mh: string(mh)}
}

// SumRaw returns the CIDv1 (raw codec) of a leaf data block.
func SumRaw(data []byte) Cid { return New(CodecRaw, SumSha256(data)) }

// SumDagNode returns the CIDv1 (dag codec) of an encoded DAG node.
func SumDagNode(encoded []byte) Cid { return New(CodecDagNode, SumSha256(encoded)) }

// Defined reports whether the CID carries a hash.
func (c Cid) Defined() bool { return c.mh != "" }

// Version returns the CID version (always 1 for defined CIDs here).
func (c Cid) Version() uint64 { return c.version }

// Codec returns the content codec.
func (c Cid) Codec() uint64 { return c.codec }

// Multihash returns the embedded multihash.
func (c Cid) Multihash() Multihash { return Multihash(c.mh) }

// Digest returns the raw SHA-256 digest addressed by this CID.
func (c Cid) Digest() []byte { return Multihash(c.mh).Digest() }

// Bytes returns the binary form: varint version, varint codec, multihash.
func (c Cid) Bytes() []byte {
	if !c.Defined() {
		return nil
	}
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(c.mh))
	buf = binary.AppendUvarint(buf, c.version)
	buf = binary.AppendUvarint(buf, c.codec)
	return append(buf, c.mh...)
}

// Cast parses the binary form produced by Bytes.
func Cast(b []byte) (Cid, error) {
	version, n := binary.Uvarint(b)
	if n <= 0 {
		return Undef, errors.New("cid: bad version varint")
	}
	rest := b[n:]
	codec, n := binary.Uvarint(rest)
	if n <= 0 {
		return Undef, errors.New("cid: bad codec varint")
	}
	mh := Multihash(rest[n:])
	if err := mh.Validate(); err != nil {
		return Undef, err
	}
	if version != 1 {
		return Undef, fmt.Errorf("cid: unsupported version %d", version)
	}
	return Cid{version: version, codec: codec, mh: string(mh)}, nil
}

// String renders the CID in base32 with the "b" multibase prefix, the
// canonical CIDv1 text form.
func (c Cid) String() string {
	if !c.Defined() {
		return "<undef>"
	}
	return "b" + base32Encode(c.Bytes())
}

// StringV0 renders the multihash in base58btc (the Qm... CIDv0 style), for
// display parity with IPFS tooling.
func (c Cid) StringV0() string {
	if !c.Defined() {
		return "<undef>"
	}
	return base58Encode([]byte(c.mh))
}

// Parse decodes the canonical base32 text form produced by String.
func Parse(s string) (Cid, error) {
	if len(s) < 2 || s[0] != 'b' {
		return Undef, fmt.Errorf("cid: %q lacks base32 multibase prefix", s)
	}
	raw, err := base32Decode(s[1:])
	if err != nil {
		return Undef, fmt.Errorf("cid: parse %q: %w", s, err)
	}
	return Cast(raw)
}

// Equals reports CID equality.
func (c Cid) Equals(o Cid) bool { return c == o }

// MarshalJSON encodes the CID as its canonical string.
func (c Cid) MarshalJSON() ([]byte, error) {
	if !c.Defined() {
		return []byte(`""`), nil
	}
	return json.Marshal(c.String())
}

// UnmarshalJSON decodes a CID from its canonical string; "" yields Undef.
func (c *Cid) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	if s == "" {
		*c = Undef
		return nil
	}
	parsed, err := Parse(s)
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}
