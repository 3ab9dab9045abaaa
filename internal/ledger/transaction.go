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

// TxPayload names the chaincode invocation a transaction carries. A
// batched ingest envelope carries its calls in Batch instead (one entry
// per call, each with Chaincode/Fn/Args set and Batch empty); the calls
// executed on one simulator and committed atomically under this envelope.
type TxPayload struct {
	Chaincode string      `json:"chaincode"`
	Fn        string      `json:"fn"`
	Args      [][]byte    `json:"args"`
	Batch     []TxPayload `json:"batch,omitempty"`
}

// Event is a chaincode-emitted application event carried in the
// transaction and delivered to subscribers when the transaction commits as
// valid.
type Event struct {
	Name    string `json:"name"`
	Payload []byte `json:"payload,omitempty"`
}

// Transaction is a fully endorsed transaction envelope ready for ordering.
type Transaction struct {
	ID           string            `json:"id"`
	ChannelID    string            `json:"channel_id"`
	Creator      msp.Identity      `json:"creator"`
	Payload      TxPayload         `json:"payload"`
	Response     []byte            `json:"response,omitempty"`
	RWSet        statedb.RWSet     `json:"rw_set"`
	Events       []Event           `json:"events,omitempty"`
	Endorsements []msp.Endorsement `json:"endorsements"`
	Timestamp    time.Time         `json:"timestamp"`
	Signature    []byte            `json:"signature,omitempty"`
	// Trace is the observability trace ID carried from the proposal into
	// the committed envelope. Every replica stores the identical value (it
	// is part of the envelope the orderer replicates), so replica chains
	// stay byte-identical; it is outside SigningBytes, so signatures are
	// unaffected.
	Trace string `json:"trace,omitempty"`
}

// SigningBytes returns the canonical bytes the submitting client signs for
// the envelope: the endorsement digest bound to the transaction ID.
func (t *Transaction) SigningBytes() []byte { return t.SigningBytesFor(t.Digest()) }

// SigningBytesFor is SigningBytes for a caller that already holds the
// transaction's Digest, and so need not compute it a second time.
func (t *Transaction) SigningBytesFor(digest []byte) []byte {
	out := make([]byte, 0, len(digest)+len(t.ID))
	out = append(out, digest...)
	return append(out, t.ID...)
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
	b = codec.AppendString(b, t.ChannelID)
	b = t.Creator.AppendTo(b)
	b = t.Payload.appendCall(b)
	b = codec.AppendUvarint(b, uint64(len(t.Payload.Batch)))
	for i := range t.Payload.Batch {
		b = t.Payload.Batch[i].appendCall(b)
	}
	b = codec.AppendBytes(b, t.Response)
	b = t.RWSet.AppendTo(b)
	b = codec.AppendUvarint(b, uint64(len(t.Events)))
	for _, e := range t.Events {
		b = codec.AppendString(b, e.Name)
		b = codec.AppendBytes(b, e.Payload)
	}
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

// appendCall appends one invocation: chaincode, function, arguments. The
// calls of a batch follow the envelope's own (empty) call as a flat list;
// a call inside a batch has no batch of its own (CheckFlat), so nesting
// deeper than one level has no encoding.
func (p *TxPayload) appendCall(b []byte) []byte {
	b = codec.AppendString(b, p.Chaincode)
	b = codec.AppendString(b, p.Fn)
	b = codec.AppendUvarint(b, uint64(len(p.Args)))
	for _, a := range p.Args {
		b = codec.AppendBytes(b, a)
	}
	return b
}

func (p *TxPayload) decodeCall(r *codec.Reader) {
	p.Chaincode, p.Fn = r.String(), r.String()
	if n := r.Count(1); n > 0 {
		p.Args = make([][]byte, n)
	}
	for i := range p.Args {
		p.Args[i] = r.Bytes()
	}
}

// Shortest encodings of the list items below, for codec.Reader.Count.
const (
	callMinLen  = 3  // two empty strings and an empty argument list
	eventMinLen = 2  // an empty name and an empty payload
	txMinLen    = 25 // empty fields, an 8-byte timestamp
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
	*t = Transaction{ID: r.String(), ChannelID: r.String()}
	t.Creator.DecodeFrom(r)
	t.Payload.decodeCall(r)
	if n := r.Count(callMinLen); n > 0 {
		t.Payload.Batch = make([]TxPayload, n)
	}
	for i := range t.Payload.Batch {
		t.Payload.Batch[i].decodeCall(r)
	}
	t.Response = r.Bytes()
	t.RWSet.DecodeFrom(r)
	if n := r.Count(eventMinLen); n > 0 {
		t.Events = make([]Event, n)
	}
	for i := range t.Events {
		t.Events[i] = Event{Name: r.String(), Payload: r.Bytes()}
	}
	if n := r.Count(msp.EndorsementMinLen); n > 0 {
		t.Endorsements = make([]msp.Endorsement, n)
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
