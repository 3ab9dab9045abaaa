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

// Policy decides whether the members that endorsed a transaction satisfy
// a channel's endorsement requirement. It is handed Registry.Endorsers'
// result — distinct channel members whose signatures over the
// transaction's digest verified — so a policy only counts.
type Policy interface {
	// Evaluate returns nil when endorsers satisfy the policy.
	Evaluate(endorsers []Identity) error
	// Describe returns a human-readable statement of the requirement.
	Describe() string
}

// QuorumPolicy requires at least Threshold distinct valid endorsements out
// of Total known endorsers. TwoThirds constructs the paper's ≥2/3 rule.
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

// Evaluate implements Policy.
func (p QuorumPolicy) Evaluate(endorsers []Identity) error {
	if p.Threshold <= 0 {
		return errors.New("msp: quorum policy with non-positive threshold")
	}
	if n := len(endorsers); n < p.Threshold {
		return fmt.Errorf("msp: endorsement policy not satisfied: %d/%d valid endorsements, need %d", n, p.Total, p.Threshold)
	}
	return nil
}

// Describe implements Policy.
func (p QuorumPolicy) Describe() string {
	return fmt.Sprintf("%d of %d endorsers", p.Threshold, p.Total)
}

// OrgCoveragePolicy additionally requires endorsements from at least
// MinOrgs distinct organisations, modelling Fabric's AND(Org1, Org2, ...)
// policies for multi-stakeholder channels.
type OrgCoveragePolicy struct {
	Threshold int
	MinOrgs   int
}

// Evaluate implements Policy.
func (p OrgCoveragePolicy) Evaluate(endorsers []Identity) error {
	if n := len(endorsers); n < p.Threshold {
		return fmt.Errorf("msp: need %d endorsements, have %d", p.Threshold, n)
	}
	orgs := make(map[string]bool)
	for _, id := range endorsers {
		orgs[id.Org] = true
	}
	if len(orgs) < p.MinOrgs {
		return fmt.Errorf("msp: need endorsements from %d orgs, have %d", p.MinOrgs, len(orgs))
	}
	return nil
}

// Describe implements Policy.
func (p OrgCoveragePolicy) Describe() string {
	return fmt.Sprintf("%d endorsers across >=%d orgs", p.Threshold, p.MinOrgs)
}

// AnyValid accepts a single valid endorsement; used for read-only queries.
type AnyValid struct{}

// Evaluate implements Policy.
func (AnyValid) Evaluate(endorsers []Identity) error {
	if len(endorsers) < 1 {
		return errors.New("msp: no valid endorsement")
	}
	return nil
}

// Describe implements Policy.
func (AnyValid) Describe() string { return "any single endorser" }
