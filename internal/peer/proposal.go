// Package peer implements the endorsing peers of the paper's architecture:
// proposal endorsement (chaincode simulation + signed read/write sets),
// block validation (creator signatures, endorsement policy, MVCC) and
// commit (world state + history updates, validation flags, events).
package peer

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
)

// Proposal is a client's request that a chaincode function be executed and
// endorsed.
type Proposal struct {
	TxID      string       `json:"tx_id"`
	ChannelID string       `json:"channel_id"`
	Chaincode string       `json:"chaincode"`
	Fn        string       `json:"fn"`
	Args      [][]byte     `json:"args"`
	Creator   msp.Identity `json:"creator"`
	Nonce     []byte       `json:"nonce"`
	Timestamp time.Time    `json:"timestamp"`
	Signature []byte       `json:"signature"`
	// Trace is the observability trace ID minted at submission. It rides
	// the proposal across RPC hops but stays outside SigningBytes, so
	// tracing never perturbs signatures.
	Trace string `json:"trace,omitempty"`
	// MinHeight is the chain height the endorser must have reached before
	// it simulates: the client's last receipt, so it reads its own writes.
	// It only schedules, so it stays outside SigningBytes too: a forged
	// value can delay nothing but this proposal.
	MinHeight uint64 `json:"min_height,omitempty"`
}

// SigningBytes returns the canonical bytes a client signs.
func (p *Proposal) SigningBytes() []byte {
	h := sha256.New()
	h.Write([]byte(p.TxID))
	h.Write([]byte{0})
	h.Write([]byte(p.ChannelID))
	h.Write([]byte{0})
	h.Write([]byte(p.Chaincode))
	h.Write([]byte{0})
	h.Write([]byte(p.Fn))
	h.Write([]byte{0})
	for _, a := range p.Args {
		ah := sha256.Sum256(a)
		h.Write(ah[:])
	}
	h.Write(p.Nonce)
	return h.Sum(nil)
}

// NewProposal builds and signs a proposal for the given invocation.
func NewProposal(client *msp.Signer, channelID, ccName, fn string, args [][]byte, now time.Time) (*Proposal, error) {
	nonce := make([]byte, 24)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("peer: nonce: %w", err)
	}
	p := &Proposal{
		TxID:      ledger.NewTxID(client.Identity, nonce),
		ChannelID: channelID,
		Chaincode: ccName,
		Fn:        fn,
		Args:      args,
		Creator:   client.Identity,
		Nonce:     nonce,
		Timestamp: now,
		Trace:     obs.NewTraceID(),
	}
	p.Signature = client.Sign(p.SigningBytes())
	return p, nil
}

// Verify checks the proposal's client signature.
func (p *Proposal) Verify() bool {
	return p.Creator.Verify(p.SigningBytes(), p.Signature)
}

// BatchProposal is a client's request that several chaincode calls be
// executed on one simulator and endorsed as a single atomic envelope — the
// coalesced endorsement unit of the ingest pipeline. Call i runs under
// sub-transaction ID chaincode.SubTxID(TxID, i).
type BatchProposal struct {
	TxID      string                `json:"tx_id"`
	ChannelID string                `json:"channel_id"`
	Calls     []chaincode.BatchCall `json:"calls"`
	Creator   msp.Identity          `json:"creator"`
	Nonce     []byte                `json:"nonce"`
	Timestamp time.Time             `json:"timestamp"`
	Signature []byte                `json:"signature"`
	// Trace is the observability trace ID for the whole batch envelope,
	// outside SigningBytes like the single-proposal one.
	Trace string `json:"trace,omitempty"`
	// MinHeight is the single proposal's read-your-writes floor.
	MinHeight uint64 `json:"min_height,omitempty"`
}

// SigningBytes returns the canonical bytes a client signs for a batch.
func (p *BatchProposal) SigningBytes() []byte {
	h := sha256.New()
	h.Write([]byte(p.TxID))
	h.Write([]byte{0})
	h.Write([]byte(p.ChannelID))
	h.Write([]byte{0})
	for _, c := range p.Calls {
		h.Write([]byte(c.Chaincode))
		h.Write([]byte{0})
		h.Write([]byte(c.Fn))
		h.Write([]byte{0})
		for _, a := range c.Args {
			ah := sha256.Sum256(a)
			h.Write(ah[:])
		}
		h.Write([]byte{0xff})
	}
	h.Write(p.Nonce)
	return h.Sum(nil)
}

// NewBatchProposal builds and signs a batch proposal.
func NewBatchProposal(client *msp.Signer, channelID string, calls []chaincode.BatchCall, now time.Time) (*BatchProposal, error) {
	if len(calls) == 0 {
		return nil, fmt.Errorf("peer: empty batch proposal")
	}
	nonce := make([]byte, 24)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("peer: nonce: %w", err)
	}
	p := &BatchProposal{
		TxID:      ledger.NewTxID(client.Identity, nonce),
		ChannelID: channelID,
		Calls:     calls,
		Creator:   client.Identity,
		Nonce:     nonce,
		Timestamp: now,
		Trace:     obs.NewTraceID(),
	}
	p.Signature = client.Sign(p.SigningBytes())
	return p, nil
}

// Verify checks the batch proposal's client signature.
func (p *BatchProposal) Verify() bool {
	return p.Creator.Verify(p.SigningBytes(), p.Signature)
}

// ProposalResponse is a peer's endorsement of a simulated proposal.
type ProposalResponse struct {
	TxID        string          `json:"tx_id"`
	Response    []byte          `json:"response,omitempty"`
	RWSet       []byte          `json:"rw_set"` // statedb.RWSet.Bytes
	Events      []ledger.Event  `json:"events,omitempty"`
	Endorsement msp.Endorsement `json:"endorsement"`
	Err         string          `json:"err,omitempty"`
}
