package msp

import (
	"errors"
	"fmt"

	"socialchain/internal/codec"
)

// Endorsement is a signed statement by a peer that it executed a proposal
// and observed a particular result digest: the form an endorser returns to
// the gateway, which compares digests across peers before it assembles an
// envelope. The envelope itself keeps only Ref.
type Endorsement struct {
	Endorser  Identity `json:"endorser"`
	Digest    []byte   `json:"digest"`
	Signature []byte   `json:"signature"`
}

// Verify reports whether the endorsement's signature covers the digest.
func (e Endorsement) Verify() bool {
	return e.Endorser.Verify(e.Digest, e.Signature)
}

// Ref returns the endorsement as a committed envelope carries it.
func (e Endorsement) Ref() EndorsementRef {
	return EndorsementRef{Signer: e.Endorser.Fingerprint(), Signature: e.Signature}
}

// EndorsementRef is an endorsement inside a committed envelope: the
// signer's key fingerprint and its signature. Who the signer is comes from
// the channel's Registry, and what was signed is the digest a validator
// computes from the envelope's own read/write set and response — so the
// envelope repeats neither, and a signature over any other result counts
// for nothing.
type EndorsementRef struct {
	Signer    Fingerprint `json:"signer"`
	Signature []byte      `json:"signature"`
}

// AppendTo appends the canonical encoding: the 8 fingerprint bytes, then
// the signature.
func (e EndorsementRef) AppendTo(b []byte) []byte {
	return codec.AppendBytes(append(b, e.Signer[:]...), e.Signature)
}

// DecodeFrom reads what AppendTo wrote. The signature's length is not
// judged here: Verify rejects a malformed one, so an envelope carrying it
// decodes and is flagged invalid instead of being undecodable.
func (e *EndorsementRef) DecodeFrom(r *codec.Reader) {
	r.Raw(e.Signer[:])
	e.Signature = r.Bytes()
}

// EndorsementRefMinLen is the shortest encoded EndorsementRef, for the
// codec.Reader.Count of a list of them.
const EndorsementRefMinLen = len(Fingerprint{}) + 1

// QuorumPolicy is a channel's endorsement requirement: at least Threshold
// distinct valid endorsements out of Total known endorsers. It is handed
// Registry.Endorsers' result — distinct channel members whose signatures
// over the transaction's digest verified — so it only counts. TwoThirds
// constructs the paper's ≥2/3 rule.
type QuorumPolicy struct {
	Threshold int
	Total     int
}

// TwoThirds returns the quorum policy of §III: a transaction is legitimate
// when at least two-thirds of the n peers endorse it.
func TwoThirds(n int) QuorumPolicy {
	// ceil(2n/3)
	return QuorumPolicy{Threshold: (2*n + 2) / 3, Total: n}
}

// Evaluate returns nil when endorsers satisfy the policy.
func (p QuorumPolicy) Evaluate(endorsers []Identity) error {
	if p.Threshold <= 0 {
		return errors.New("msp: quorum policy with non-positive threshold")
	}
	if n := len(endorsers); n < p.Threshold {
		return fmt.Errorf("msp: endorsement policy not satisfied: %d/%d valid endorsements, need %d", n, p.Total, p.Threshold)
	}
	return nil
}
