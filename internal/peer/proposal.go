// Package peer implements the endorsing peers of the paper's architecture:
// proposal endorsement (chaincode simulation + signed read/write sets),
// block validation (creator signatures, endorsement policy, MVCC) and
// commit (world state updates, validation flags, events).
package peer

import (
	"crypto/rand"
	"fmt"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/codec"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
)

// Proposal is a client's request that chaincode be executed and endorsed.
// It names either one call of its own (Chaincode, Fn, Args) or a batch of
// calls (Batch), the coalesced endorsement unit of the ingest pipeline:
// every call of a batch executes on one simulator and the calls commit
// atomically under one envelope, call i under sub-transaction ID
// chaincode.SubTxID(TxID, i). A proposal naming both, or neither, is
// refused. The envelope records what it names as Payload.
type Proposal struct {
	TxID      string
	ChannelID string
	Chaincode string
	Fn        string
	Args      [][]byte
	Batch     []chaincode.BatchCall
	Creator   msp.Identity
	Nonce     []byte
	Timestamp time.Time
	Signature []byte
	// Trace is the observability trace ID minted at submission. It rides
	// the proposal across RPC hops but stays outside SigningBytes, so
	// tracing never perturbs signatures.
	Trace string
	// MinHeight is the chain height the endorser must have reached before
	// it simulates: the client's last receipt, so it reads its own writes.
	// It only schedules, so it stays outside SigningBytes too: a forged
	// value can delay nothing but this proposal.
	MinHeight uint64
}

// Payload returns the invocation the proposal names as the envelope
// records it: chaincode, function and argument hashes, of its own call or
// of each call of its batch.
func (p *Proposal) Payload() ledger.TxPayload {
	out := ledger.TxPayload{Chaincode: p.Chaincode, Fn: p.Fn, ArgHashes: ledger.HashArgs(p.Args)}
	if len(p.Batch) > 0 {
		out.Batch = make([]ledger.TxPayload, len(p.Batch))
	}
	for i, c := range p.Batch {
		out.Batch[i] = ledger.TxPayload{Chaincode: c.Chaincode, Fn: c.Fn, ArgHashes: ledger.HashArgs(c.Args)}
	}
	return out
}

// SigningBytes returns the bytes a client signs: the canonical encoding
// of the transaction ID, the channel, the payload (ledger.TxPayload's
// encoding, the one the envelope carries) and the nonce.
func (p *Proposal) SigningBytes() []byte { return p.signingBytes(p.Payload()) }

func (p *Proposal) signingBytes(payload ledger.TxPayload) []byte {
	b := codec.AppendString(codec.AppendString(nil, p.TxID), p.ChannelID)
	return codec.AppendBytes(payload.AppendTo(b), p.Nonce)
}

// check refuses a proposal that names both a call of its own and a batch,
// or neither.
func (p *Proposal) check() error {
	own := p.Chaincode != "" || p.Fn != "" || len(p.Args) > 0
	if own == (len(p.Batch) > 0) {
		return fmt.Errorf("peer: proposal %s must name one call or one batch of calls", p.TxID)
	}
	return nil
}

// Sign stamps the proposal with client's identity, a fresh nonce, the
// transaction ID they derive and a trace ID, and signs it. It returns the
// payload the signature covers (Payload), for the envelope.
func (p *Proposal) Sign(client *msp.Signer) (ledger.TxPayload, error) {
	if err := p.check(); err != nil {
		return ledger.TxPayload{}, err
	}
	nonce := make([]byte, 24)
	if _, err := rand.Read(nonce); err != nil {
		return ledger.TxPayload{}, fmt.Errorf("peer: nonce: %w", err)
	}
	p.Creator, p.Nonce, p.Trace = client.Identity, nonce, obs.NewTraceID()
	p.TxID = ledger.NewTxID(client.Identity, nonce)
	payload := p.Payload()
	p.Signature = client.Sign(p.signingBytes(payload))
	return payload, nil
}

// NewProposal builds and signs a proposal for the given invocation.
func NewProposal(client *msp.Signer, channelID, ccName, fn string, args [][]byte, now time.Time) (*Proposal, error) {
	p := &Proposal{ChannelID: channelID, Chaincode: ccName, Fn: fn, Args: args, Timestamp: now}
	if _, err := p.Sign(client); err != nil {
		return nil, err
	}
	return p, nil
}

// AppendTo appends the proposal's canonical encoding, the body of the
// endorse RPC: every field in declaration order, a call as its chaincode,
// function and arguments, the batch as its count and then each call.
func (p *Proposal) AppendTo(b []byte) []byte {
	b = codec.AppendString(b, p.TxID)
	b = codec.AppendString(b, p.ChannelID)
	b = appendCall(b, p.Chaincode, p.Fn, p.Args)
	b = codec.AppendUvarint(b, uint64(len(p.Batch)))
	for _, c := range p.Batch {
		b = appendCall(b, c.Chaincode, c.Fn, c.Args)
	}
	b = p.Creator.AppendTo(b)
	b = codec.AppendBytes(b, p.Nonce)
	b = codec.AppendTime(b, p.Timestamp)
	b = codec.AppendBytes(b, p.Signature)
	b = codec.AppendString(b, p.Trace)
	return codec.AppendUvarint(b, p.MinHeight)
}

// DecodeFrom reads what AppendTo wrote; empty lists and byte strings read
// as nil and the timestamp comes back in UTC.
func (p *Proposal) DecodeFrom(r *codec.Reader) {
	*p = Proposal{TxID: r.String(), ChannelID: r.String()}
	p.Chaincode, p.Fn, p.Args = decodeCall(r)
	if n := r.Count(callMinLen); n > 0 {
		p.Batch = make([]chaincode.BatchCall, n)
	}
	for i := range p.Batch {
		c := &p.Batch[i]
		c.Chaincode, c.Fn, c.Args = decodeCall(r)
	}
	p.Creator.DecodeFrom(r)
	p.Nonce = r.Bytes()
	p.Timestamp = r.Time()
	p.Signature = r.Bytes()
	p.Trace = r.String()
	p.MinHeight = r.Uvarint()
}

// callMinLen is the shortest encoded call: two empty strings and an empty
// argument list.
const callMinLen = 3

func appendCall(b []byte, cc, fn string, args [][]byte) []byte {
	b = codec.AppendString(codec.AppendString(b, cc), fn)
	b = codec.AppendUvarint(b, uint64(len(args)))
	for _, a := range args {
		b = codec.AppendBytes(b, a)
	}
	return b
}

func decodeCall(r *codec.Reader) (cc, fn string, args [][]byte) {
	cc, fn = r.String(), r.String()
	if n := r.Count(1); n > 0 {
		args = make([][]byte, n)
	}
	for i := range args {
		args[i] = r.Bytes()
	}
	return cc, fn, args
}

// ProposalResponse is a peer's endorsement of a simulated proposal.
type ProposalResponse struct {
	TxID        string
	Response    []byte
	RWSet       []byte // statedb.RWSet.Bytes
	Events      []ledger.Event
	Endorsement msp.Endorsement
}

// AppendTo appends the response's canonical encoding, the endorse RPC's
// answer: the fields in declaration order, the events as a transaction
// carries them (ledger.AppendEvents), the endorsement as the endorser's
// identity, the digest and the signature.
func (r *ProposalResponse) AppendTo(b []byte) []byte {
	b = codec.AppendString(b, r.TxID)
	b = codec.AppendBytes(b, r.Response)
	b = codec.AppendBytes(b, r.RWSet)
	b = ledger.AppendEvents(b, r.Events)
	b = r.Endorsement.Endorser.AppendTo(b)
	b = codec.AppendBytes(b, r.Endorsement.Digest)
	return codec.AppendBytes(b, r.Endorsement.Signature)
}

// DecodeFrom reads what AppendTo wrote; empty lists and byte strings read
// as nil.
func (r *ProposalResponse) DecodeFrom(rd *codec.Reader) {
	*r = ProposalResponse{TxID: rd.String(), Response: rd.Bytes(), RWSet: rd.Bytes(), Events: ledger.DecodeEvents(rd)}
	r.Endorsement.Endorser.DecodeFrom(rd)
	r.Endorsement.Digest = rd.Bytes()
	r.Endorsement.Signature = rd.Bytes()
}
