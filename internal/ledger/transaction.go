// Package ledger implements the blockchain itself: transaction envelopes,
// blocks with a SHA-256 hash chain and Merkle data hashes, validation flags
// recorded in block metadata, and whole-chain integrity verification — the
// "Ledger / Transactions / Metadata" stack of the paper's Figure 1.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"socialchain/internal/codec"
	"socialchain/internal/msp"
	"socialchain/internal/statedb"
)

// ArgHash is the SHA-256 of one chaincode argument; as text it is 64 hex
// digits.
type ArgHash [sha256.Size]byte

// HashArgs returns the hash of each argument of an invocation — what the
// envelope records of them.
func HashArgs(args [][]byte) []ArgHash {
	if len(args) == 0 {
		return nil
	}
	out := make([]ArgHash, len(args))
	for i, a := range args {
		out[i] = sha256.Sum256(a)
	}
	return out
}

// String returns the hash in hex.
func (h ArgHash) String() string { return hex.EncodeToString(h[:]) }

// MarshalText implements encoding.TextMarshaler (hex).
func (h ArgHash) MarshalText() ([]byte, error) { return []byte(h.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler; anything but 64 hex
// digits is an error, never a short hash.
func (h *ArgHash) UnmarshalText(text []byte) error { return codec.DecodeHex(h[:], text) }

// TxPayload records the chaincode invocation a transaction carried:
// chaincode, function and one hash per argument. The arguments themselves
// travel in the proposal, to the endorsers that execute them; what they
// caused is in the envelope's read/write set, which is what endorsers
// sign, validators check and queries read, so the envelope does not hold a
// second copy. The hashes (the ones the proposal's signature is over) let
// an auditor who has an argument check it was the one submitted. A batched
// ingest envelope carries its calls in Batch instead (one entry per call,
// each with Chaincode/Fn/ArgHashes set and Batch empty); the calls
// executed on one simulator and committed atomically under this envelope.
type TxPayload struct {
	Chaincode string      `json:"chaincode"`
	Fn        string      `json:"fn"`
	ArgHashes []ArgHash   `json:"arg_hashes"`
	Batch     []TxPayload `json:"batch,omitempty"`
}

// Calls returns the invocations the payload records: the calls of its
// batch, or its own call when it has none.
func (p TxPayload) Calls() []TxPayload {
	if len(p.Batch) > 0 {
		return p.Batch
	}
	return []TxPayload{p}
}

// Transaction is a fully endorsed transaction envelope ready for ordering.
type Transaction struct {
	ID           string               `json:"id"`
	Creator      msp.Identity         `json:"creator"`
	Payload      TxPayload            `json:"payload"`
	Response     []byte               `json:"response,omitempty"`
	RWSet        statedb.RWSet        `json:"rw_set"`
	Endorsements []msp.EndorsementRef `json:"endorsements"`
	Timestamp    time.Time            `json:"timestamp"`
	Signature    []byte               `json:"signature,omitempty"`
	// Trace is the observability trace ID carried from the proposal into
	// the committed envelope. Every replica stores the identical value (it
	// is part of the envelope the orderer replicates), so replica chains
	// stay byte-identical; it is outside SigningBytes, so signatures are
	// unaffected.
	Trace string `json:"trace,omitempty"`
}

// SigningBytes returns the canonical bytes the submitting client signs for
// the envelope: the endorsement digest, the transaction ID, the recorded
// invocation (chaincode, function and argument hashes, batched calls
// included) and the timestamp, which becomes the block header's time, so
// whoever orders the envelope can rewrite none of them.
func (t *Transaction) SigningBytes() []byte { return t.SigningBytesFor(t.Digest()) }

// SigningBytesFor is SigningBytes for a caller that already holds the
// transaction's Digest, and so need not compute it a second time.
func (t *Transaction) SigningBytesFor(digest []byte) []byte {
	out := make([]byte, 0, len(digest)+len(t.ID)+128)
	out = codec.AppendString(append(out, digest...), t.ID)
	return codec.AppendTime(t.Payload.AppendTo(out), t.Timestamp)
}

// NewTxID derives a transaction ID from the creator and a nonce, following
// Fabric's txid = hash(nonce || creator).
func NewTxID(creator msp.Identity, nonce []byte) string {
	h := sha256.New()
	h.Write(nonce)
	h.Write(creator.AppendTo(nil))
	return hex.EncodeToString(h.Sum(nil))
}

// Digest returns the endorsement digest of this transaction's simulation
// result (RWSet + response), recomputed on every call: one append pass
// over the read/write set and a SHA-256.
func (t *Transaction) Digest() []byte {
	return t.RWSet.Digest(t.Response)
}

// Bytes returns the transaction's canonical encoding: the Merkle leaf
// under the block's data hash, and the form it takes in the block log, in
// an ordering batch and on the wire.
func (t *Transaction) Bytes() []byte { return codec.Encode(t.AppendTo) }

// AppendTo appends the canonical encoding (internal/codec), field by
// field in declaration order.
func (t *Transaction) AppendTo(b []byte) []byte {
	b = codec.AppendString(b, t.ID)
	b = t.Creator.AppendTo(b)
	b = t.Payload.AppendTo(b)
	b = codec.AppendBytes(b, t.Response)
	b = t.RWSet.AppendTo(b)
	b = codec.AppendUvarint(b, uint64(len(t.Endorsements)))
	for _, e := range t.Endorsements {
		b = e.AppendTo(b)
	}
	b = codec.AppendTime(b, t.Timestamp)
	b = codec.AppendBytes(b, t.Signature)
	return codec.AppendString(b, t.Trace)
}

// CheckFlat refuses an envelope whose batched calls carry batches of their
// own: the encoding is one flat list of calls, so the nested ones would be
// left out of the bytes, the hashes over them and the committed record.
// Whatever takes a transaction built in process (the gateway, the ordering
// service) checks this before the transaction is first encoded.
func (t *Transaction) CheckFlat() error {
	for i := range t.Payload.Batch {
		if len(t.Payload.Batch[i].Batch) > 0 {
			return fmt.Errorf("ledger: tx %s: batched call %d carries a batch of its own; an envelope is one level deep", t.ID, i)
		}
	}
	return nil
}

// AppendTo appends the payload: the envelope's own call, then the calls
// of its batch as a flat list behind their count. A call inside a batch
// has no batch of its own (CheckFlat), so nesting deeper than one level
// has no encoding. A proposal's signing bytes carry the same encoding
// (peer.Proposal.SigningBytes).
func (p *TxPayload) AppendTo(b []byte) []byte {
	b = p.appendCall(b)
	b = codec.AppendUvarint(b, uint64(len(p.Batch)))
	for i := range p.Batch {
		b = p.Batch[i].appendCall(b)
	}
	return b
}

func (p *TxPayload) decodeFrom(r *codec.Reader) {
	p.decodeCall(r)
	if n := r.Count(callMinLen); n > 0 {
		p.Batch = make([]TxPayload, n)
	}
	for i := range p.Batch {
		p.Batch[i].decodeCall(r)
	}
}

// appendCall appends one invocation: chaincode, function, and the
// argument hashes as their count and then 32 raw bytes each.
func (p *TxPayload) appendCall(b []byte) []byte {
	b = codec.AppendString(b, p.Chaincode)
	b = codec.AppendString(b, p.Fn)
	b = codec.AppendUvarint(b, uint64(len(p.ArgHashes)))
	for i := range p.ArgHashes {
		b = append(b, p.ArgHashes[i][:]...)
	}
	return b
}

func (p *TxPayload) decodeCall(r *codec.Reader) {
	p.Chaincode, p.Fn = r.String(), r.String()
	if n := r.Count(len(ArgHash{})); n > 0 {
		p.ArgHashes = make([]ArgHash, n)
	}
	for i := range p.ArgHashes {
		r.Raw(p.ArgHashes[i][:])
	}
}

// Shortest encodings of the list items below, for codec.Reader.Count.
const (
	callMinLen = 3  // two empty strings and an empty argument list
	txMinLen   = 23 // empty fields, an 8-byte timestamp
)

// AppendTxs appends a list of transactions — a block's, an ordering
// batch's — as their count and then each one's canonical encoding.
func AppendTxs(b []byte, txs []Transaction) []byte {
	b = codec.AppendUvarint(b, uint64(len(txs)))
	for i := range txs {
		b = txs[i].AppendTo(b)
	}
	return b
}

// DecodeTxs reads what AppendTxs wrote; an empty list reads as nil.
func DecodeTxs(r *codec.Reader) []Transaction {
	n := r.Count(txMinLen)
	if n == 0 {
		return nil
	}
	txs := make([]Transaction, n)
	for i := range txs {
		txs[i].DecodeFrom(r)
	}
	return txs
}

// DecodeFrom reads what AppendTo wrote; empty lists and byte strings read
// as nil and the timestamp comes back in UTC.
func (t *Transaction) DecodeFrom(r *codec.Reader) {
	*t = Transaction{ID: r.String()}
	t.Creator.DecodeFrom(r)
	t.Payload.decodeFrom(r)
	t.Response = r.Bytes()
	t.RWSet.DecodeFrom(r)
	if n := r.Count(msp.EndorsementRefMinLen); n > 0 {
		t.Endorsements = make([]msp.EndorsementRef, n)
	}
	for i := range t.Endorsements {
		t.Endorsements[i].DecodeFrom(r)
	}
	t.Timestamp = r.Time()
	t.Signature = r.Bytes()
	t.Trace = r.String()
}

// DecodeTransaction parses a whole transaction encoded with Bytes.
func DecodeTransaction(b []byte) (*Transaction, error) {
	var t Transaction
	r := codec.NewReader(b)
	t.DecodeFrom(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &t, nil
}

// ValidationCode records why a transaction was accepted or rejected at
// commit time, stored per-transaction in block metadata as in Fabric.
type ValidationCode uint8

// Validation outcomes.
const (
	Valid ValidationCode = iota
	MVCCConflict
	EndorsementPolicyFailure
	BadCreatorSignature
	InvalidChaincode
	InvalidOther
)

// String renders the code for logs and metrics.
func (c ValidationCode) String() string {
	switch c {
	case Valid:
		return "VALID"
	case MVCCConflict:
		return "MVCC_READ_CONFLICT"
	case EndorsementPolicyFailure:
		return "ENDORSEMENT_POLICY_FAILURE"
	case BadCreatorSignature:
		return "BAD_CREATOR_SIGNATURE"
	case InvalidChaincode:
		return "INVALID_CHAINCODE"
	default:
		return "INVALID_OTHER"
	}
}
