package msp

import (
	"errors"
	"fmt"

	"socialchain/internal/codec"
)

// Endorsement is a signed statement by a peer that it executed a proposal
// and observed a particular result digest.
type Endorsement struct {
	Endorser  Identity `json:"endorser"`
	Digest    []byte   `json:"digest"`
	Signature []byte   `json:"signature"`
}

// AppendTo appends the endorsement's canonical encoding: endorser, digest,
// signature.
func (e Endorsement) AppendTo(b []byte) []byte {
	b = e.Endorser.AppendTo(b)
	b = codec.AppendBytes(b, e.Digest)
	return codec.AppendBytes(b, e.Signature)
}

// DecodeFrom reads what AppendTo wrote.
func (e *Endorsement) DecodeFrom(r *codec.Reader) {
	e.Endorser.DecodeFrom(r)
	e.Digest = r.Bytes()
	e.Signature = r.Bytes()
}

// EndorsementMinLen is the shortest encoded endorsement, for the
// codec.Reader.Count of a list of them.
const EndorsementMinLen = identityMinLen + 2

// Verify reports whether the endorsement's signature covers the digest.
func (e Endorsement) Verify() bool {
	return e.Endorser.Verify(e.Digest, e.Signature)
}

// Policy decides whether a set of endorsements satisfies a channel's
// endorsement requirement. Implementations must tolerate duplicate and
// invalid endorsements (they are simply not counted).
type Policy interface {
	// Evaluate returns nil when the endorsements satisfy the policy for the
	// given result digest.
	Evaluate(digest []byte, endorsements []Endorsement) error
	// Describe returns a human-readable statement of the requirement.
	Describe() string
}

// countValid tallies endorsements that verify, match digest, and come from
// distinct endorsers.
func countValid(digest []byte, endorsements []Endorsement) (int, map[string]int) {
	return countValidWith(digest, endorsements, verifyDirect)
}

// verifyDirect is countValidWith's default verifier: check the signature.
func verifyDirect(_ int, e Endorsement) bool { return e.Verify() }

// countValidWith is countValid with the signature check abstracted, so
// callers that already verified the batch (peer block validation) can
// supply their verdicts instead of paying ed25519.Verify a second time.
func countValidWith(digest []byte, endorsements []Endorsement, verify func(int, Endorsement) bool) (int, map[string]int) {
	seen := make(map[string]bool)
	perOrg := make(map[string]int)
	n := 0
	for i, e := range endorsements {
		id := e.Endorser.ID()
		if seen[id] {
			continue
		}
		if !bytesEqual(e.Digest, digest) {
			continue
		}
		if !verify(i, e) {
			continue
		}
		seen[id] = true
		perOrg[e.Endorser.Org]++
		n++
	}
	return n, perOrg
}

// verdictFunc adapts a precomputed verdict slice (verified[i] is the
// outcome of endorsements[i].Verify()) into a countValidWith verifier.
// Indices beyond the slice fall back to direct verification.
func verdictFunc(verified []bool) func(int, Endorsement) bool {
	return func(i int, e Endorsement) bool {
		if i < len(verified) {
			return verified[i]
		}
		return e.Verify()
	}
}

// verifiedPolicy is implemented by the policies in this package to accept
// caller-supplied signature verdicts.
type verifiedPolicy interface {
	evaluateVerified(digest []byte, endorsements []Endorsement, verified []bool) error
}

// EvaluateVerified evaluates p against endorsements whose signatures the
// caller has already checked — verified[i] must be the outcome of
// endorsements[i].Verify(). The built-in policies skip re-verification;
// third-party Policy implementations fall back to a full Evaluate, which
// is always sound (merely slower).
func EvaluateVerified(p Policy, digest []byte, endorsements []Endorsement, verified []bool) error {
	if vp, ok := p.(verifiedPolicy); ok {
		return vp.evaluateVerified(digest, endorsements, verified)
	}
	return p.Evaluate(digest, endorsements)
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
func (p QuorumPolicy) Evaluate(digest []byte, endorsements []Endorsement) error {
	return p.evaluate(digest, endorsements, verifyDirect)
}

func (p QuorumPolicy) evaluateVerified(digest []byte, endorsements []Endorsement, verified []bool) error {
	return p.evaluate(digest, endorsements, verdictFunc(verified))
}

func (p QuorumPolicy) evaluate(digest []byte, endorsements []Endorsement, verify func(int, Endorsement) bool) error {
	if p.Threshold <= 0 {
		return errors.New("msp: quorum policy with non-positive threshold")
	}
	n, _ := countValidWith(digest, endorsements, verify)
	if n < p.Threshold {
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
func (p OrgCoveragePolicy) Evaluate(digest []byte, endorsements []Endorsement) error {
	return p.evaluate(digest, endorsements, verifyDirect)
}

func (p OrgCoveragePolicy) evaluateVerified(digest []byte, endorsements []Endorsement, verified []bool) error {
	return p.evaluate(digest, endorsements, verdictFunc(verified))
}

func (p OrgCoveragePolicy) evaluate(digest []byte, endorsements []Endorsement, verify func(int, Endorsement) bool) error {
	n, perOrg := countValidWith(digest, endorsements, verify)
	if n < p.Threshold {
		return fmt.Errorf("msp: need %d endorsements, have %d", p.Threshold, n)
	}
	if len(perOrg) < p.MinOrgs {
		return fmt.Errorf("msp: need endorsements from %d orgs, have %d", p.MinOrgs, len(perOrg))
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
func (AnyValid) Evaluate(digest []byte, endorsements []Endorsement) error {
	n, _ := countValid(digest, endorsements)
	if n < 1 {
		return errors.New("msp: no valid endorsement")
	}
	return nil
}

func (AnyValid) evaluateVerified(digest []byte, endorsements []Endorsement, verified []bool) error {
	n, _ := countValidWith(digest, endorsements, verdictFunc(verified))
	if n < 1 {
		return errors.New("msp: no valid endorsement")
	}
	return nil
}

// Describe implements Policy.
func (AnyValid) Describe() string { return "any single endorser" }
