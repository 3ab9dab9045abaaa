// Package consensus implements the Byzantine fault tolerant consensus the
// paper's validators run (§III-A): a PBFT-style three-phase protocol
// (pre-prepare, prepare, commit) with quorum 2f+1 out of n = 3f+1, view
// changes on leader failure, signed messages, equivocation evidence and
// eviction of validators that act against the consensus rules.
package consensus

import (
	"crypto/sha256"
	"encoding/binary"

	"socialchain/internal/codec"
)

// MsgType enumerates protocol messages.
type MsgType uint8

// Protocol message kinds.
const (
	MsgRequest MsgType = iota
	MsgPrePrepare
	MsgPrepare
	MsgCommit
	MsgViewChange
	MsgNewView
)

// String names the message type for logs.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "REQUEST"
	case MsgPrePrepare:
		return "PRE-PREPARE"
	case MsgPrepare:
		return "PREPARE"
	case MsgCommit:
		return "COMMIT"
	case MsgViewChange:
		return "VIEW-CHANGE"
	case MsgNewView:
		return "NEW-VIEW"
	default:
		return "UNKNOWN"
	}
}

// Message is the signed unit validators exchange.
type Message struct {
	Type   MsgType  `json:"type"`
	View   uint64   `json:"view"`
	Seq    uint64   `json:"seq"`
	Digest [32]byte `json:"digest"`
	From   string   `json:"from"`

	// Payload carries the proposed batch (Request, PrePrepare). The
	// signature covers it only through Digest: a replica drops a request or
	// pre-prepare whose Digest is not SHA-256(Payload) before using either.
	Payload []byte `json:"payload,omitempty"`

	// PrePrepareEvidence embeds the header of the leader-signed pre-prepare
	// a replica is preparing (encodeHeader: the pre-prepare without its
	// payload, signature intact), so peers can detect leader equivocation
	// conclusively: two such headers for one (view, seq) naming different
	// digests.
	PrePrepareEvidence []byte `json:"pre_prepare_evidence,omitempty"`

	// Proofs carries the 2f+1 view-change messages justifying a NewView.
	Proofs [][]byte `json:"proofs,omitempty"`

	Signature []byte `json:"signature,omitempty"`
}

// SigningBytes returns the canonical bytes covered by the signature. They
// hash no payload, so computing them costs the same whatever the batch
// size.
func (m *Message) SigningBytes() []byte {
	buf := make([]byte, 0, 128)
	buf = append(buf, byte(m.Type))
	buf = binary.BigEndian.AppendUint64(buf, m.View)
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = append(buf, m.Digest[:]...)
	buf = append(buf, []byte(m.From)...)
	// The payload is bound through Digest (see Payload), so a header
	// without it keeps a verifiable signature. Evidence and proofs are
	// bound via hashes so signatures stay small.
	eh := sha256.Sum256(m.PrePrepareEvidence)
	buf = append(buf, eh[:]...)
	for _, p := range m.Proofs {
		hp := sha256.Sum256(p)
		buf = append(buf, hp[:]...)
	}
	return buf
}

// Encode serialises the message for the wire and for embedding as
// evidence or proof (internal/codec): type byte, view, sequence, digest,
// sender, payload, pre-prepare evidence, proofs behind their count,
// signature. Embedded messages nest as raw byte strings.
func (m *Message) Encode() []byte {
	b := make([]byte, 0, 128+len(m.From)+len(m.Payload)+len(m.PrePrepareEvidence)+len(m.Signature))
	b = append(b, byte(m.Type))
	b = codec.AppendUvarint(b, m.View)
	b = codec.AppendUvarint(b, m.Seq)
	b = append(b, m.Digest[:]...)
	b = codec.AppendString(b, m.From)
	b = codec.AppendBytes(b, m.Payload)
	b = codec.AppendBytes(b, m.PrePrepareEvidence)
	b = codec.AppendUvarint(b, uint64(len(m.Proofs)))
	for _, p := range m.Proofs {
		b = codec.AppendBytes(b, p)
	}
	return codec.AppendBytes(b, m.Signature)
}

// encodeHeader encodes m with its payload left out: the equivocation
// evidence a prepare carries for a pre-prepare, about 150 bytes whatever
// the batch size. Its signature still verifies (the signing bytes bind the
// payload only through Digest).
func (m *Message) encodeHeader() []byte {
	h := *m
	h.Payload = nil
	return h.Encode()
}

// DecodeMessage parses a message encoded with Encode.
func DecodeMessage(b []byte) (*Message, error) {
	r := codec.NewReader(b)
	m := &Message{Type: MsgType(r.Byte()), View: r.Uvarint(), Seq: r.Uvarint(), Digest: r.Hash(), From: r.String()}
	m.Payload = r.Bytes()
	m.PrePrepareEvidence = r.Bytes()
	if n := r.Count(1); n > 0 {
		m.Proofs = make([][]byte, n)
	}
	for i := range m.Proofs {
		m.Proofs[i] = r.Bytes()
	}
	m.Signature = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// DigestOf hashes a proposal payload.
func DigestOf(payload []byte) [32]byte { return sha256.Sum256(payload) }
