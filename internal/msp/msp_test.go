package msp

import (
	"bytes"
	"testing"
	"testing/quick"

	"socialchain/internal/codec"
)

func newTestSigner(t *testing.T, org, name string, role Role) *Signer {
	t.Helper()
	s, err := NewSigner(org, name, role)
	if err != nil {
		t.Fatalf("NewSigner: %v", err)
	}
	return s
}

func TestSignVerify(t *testing.T) {
	s := newTestSigner(t, "org1", "alice", RoleMember)
	msg := []byte("hello world")
	sig := s.Sign(msg)
	if !s.Identity.Verify(msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if s.Identity.Verify([]byte("tampered"), sig) {
		t.Fatal("signature verified over wrong message")
	}
	other := newTestSigner(t, "org1", "bob", RoleMember)
	if other.Identity.Verify(msg, sig) {
		t.Fatal("signature verified by wrong identity")
	}
}

func TestVerifyRejectsMalformedInputs(t *testing.T) {
	s := newTestSigner(t, "org1", "alice", RoleMember)
	if s.Identity.Verify([]byte("m"), []byte("short")) {
		t.Fatal("short signature accepted")
	}
	bad := Identity{Org: "x", Name: "y", PubKey: []byte{1, 2, 3}}
	if bad.Verify([]byte("m"), make([]byte, 64)) {
		t.Fatal("malformed key accepted")
	}
}

func TestIdentityRoundTrip(t *testing.T) {
	s := newTestSigner(t, "cityorg", "cam-7", RoleTrustedSource)
	enc := s.Identity.AppendTo(nil)
	var got Identity
	r := codec.NewReader(enc)
	got.DecodeFrom(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if got.ID() != "cityorg/cam-7" || got.Role != RoleTrustedSource {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if !bytes.Equal(got.AppendTo(nil), enc) {
		t.Fatal("round-tripped identity encodes differently")
	}
	// The decoded identity still verifies signatures.
	msg := []byte("payload")
	if !got.Verify(msg, s.Sign(msg)) {
		t.Fatal("round-tripped identity cannot verify")
	}
}

func TestDecodeIdentityRejectsGarbage(t *testing.T) {
	enc := newTestSigner(t, "a", "b", RoleMember).Identity.AppendTo(nil)
	for cut := 0; cut < len(enc); cut++ {
		var id Identity
		r := codec.NewReader(enc[:cut])
		id.DecodeFrom(r)
		if r.Done() == nil {
			t.Fatalf("identity cut to %d of %d bytes accepted", cut, len(enc))
		}
	}
	// A malformed key decodes (the envelope stays readable) and never
	// verifies.
	var short Identity
	r := codec.NewReader(Identity{Org: "a", Name: "b", PubKey: []byte{1, 2, 3}}.AppendTo(nil))
	short.DecodeFrom(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if short.Verify([]byte("m"), make([]byte, 64)) {
		t.Fatal("malformed key accepted")
	}
}

func TestSignedMessage(t *testing.T) {
	s := newTestSigner(t, "crowd", "mobile-1", RoleUntrustedSource)
	m := NewSignedMessage(s, []byte("observation"))
	if !m.Verify() {
		t.Fatal("fresh signed message invalid")
	}
	m.Payload = append(m.Payload, 'x')
	if m.Verify() {
		t.Fatal("tampered payload verified")
	}
}

func TestSignedMessagePropertyAnyPayload(t *testing.T) {
	s := newTestSigner(t, "o", "n", RoleMember)
	err := quick.Check(func(payload []byte) bool {
		m := NewSignedMessage(s, payload)
		return m.Verify()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintStable(t *testing.T) {
	s := newTestSigner(t, "o", "n", RoleMember)
	if s.Identity.Fingerprint() != s.Identity.Fingerprint() {
		t.Fatal("fingerprint unstable")
	}
	if len(s.Identity.Fingerprint()) != 16 {
		t.Fatalf("fingerprint length %d", len(s.Identity.Fingerprint()))
	}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	a := newTestSigner(t, "org1", "a", RoleMember)
	b := newTestSigner(t, "org2", "b", RoleAdmin)
	if err := r.Register(a.Identity); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(b.Identity); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(a.Identity); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	got, ok := r.Lookup("org1/a")
	if !ok || got.Name != "a" {
		t.Fatal("lookup failed")
	}
	if _, ok := r.Lookup("org9/zz"); ok {
		t.Fatal("phantom lookup")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	orgs := r.Orgs()
	if len(orgs) != 2 || orgs[0] != "org1" || orgs[1] != "org2" {
		t.Fatalf("orgs = %v", orgs)
	}
	if members := r.Members("org1"); len(members) != 1 || members[0] != "org1/a" {
		t.Fatalf("members = %v", members)
	}
}

func endorse(t *testing.T, s *Signer, digest []byte) Endorsement {
	t.Helper()
	return Endorsement{Endorser: s.Identity, Digest: digest, Signature: s.Sign(digest)}
}

func TestQuorumPolicy(t *testing.T) {
	digest := []byte("result-digest")
	var signers []*Signer
	for i := 0; i < 4; i++ {
		signers = append(signers, newTestSigner(t, "org", string(rune('a'+i)), RoleMember))
	}
	pol := TwoThirds(4) // threshold 3
	if pol.Threshold != 3 {
		t.Fatalf("TwoThirds(4).Threshold = %d", pol.Threshold)
	}

	var ends []Endorsement
	for i := 0; i < 3; i++ {
		ends = append(ends, endorse(t, signers[i], digest))
	}
	if err := pol.Evaluate(digest, ends); err != nil {
		t.Fatalf("3/4 endorsements should satisfy: %v", err)
	}
	if err := pol.Evaluate(digest, ends[:2]); err == nil {
		t.Fatal("2/4 endorsements must not satisfy")
	}
}

func TestQuorumPolicyIgnoresDuplicatesAndBadSigs(t *testing.T) {
	digest := []byte("d")
	s := newTestSigner(t, "org", "solo", RoleMember)
	e := endorse(t, s, digest)
	pol := QuorumPolicy{Threshold: 2, Total: 4}
	// Same endorser twice counts once.
	if err := pol.Evaluate(digest, []Endorsement{e, e}); err == nil {
		t.Fatal("duplicate endorser satisfied quorum")
	}
	// A forged signature never counts.
	forged := Endorsement{Endorser: s.Identity, Digest: digest, Signature: make([]byte, 64)}
	if err := pol.Evaluate(digest, []Endorsement{e, forged}); err == nil {
		t.Fatal("forged endorsement satisfied quorum")
	}
	// A wrong-digest endorsement never counts.
	wrong := endorse(t, s, []byte("other"))
	if err := pol.Evaluate(digest, []Endorsement{e, wrong}); err == nil {
		t.Fatal("wrong-digest endorsement satisfied quorum")
	}
}

func TestTwoThirdsThresholds(t *testing.T) {
	cases := []struct{ n, want int }{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {6, 4}, {7, 5}, {9, 6}, {10, 7}}
	for _, c := range cases {
		if got := TwoThirds(c.n).Threshold; got != c.want {
			t.Errorf("TwoThirds(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestOrgCoveragePolicy(t *testing.T) {
	digest := []byte("d")
	a1 := newTestSigner(t, "orgA", "1", RoleMember)
	a2 := newTestSigner(t, "orgA", "2", RoleMember)
	b1 := newTestSigner(t, "orgB", "1", RoleMember)
	pol := OrgCoveragePolicy{Threshold: 2, MinOrgs: 2}
	sameOrg := []Endorsement{endorse(t, a1, digest), endorse(t, a2, digest)}
	if err := pol.Evaluate(digest, sameOrg); err == nil {
		t.Fatal("single-org endorsements satisfied a 2-org policy")
	}
	crossOrg := []Endorsement{endorse(t, a1, digest), endorse(t, b1, digest)}
	if err := pol.Evaluate(digest, crossOrg); err != nil {
		t.Fatalf("cross-org endorsements rejected: %v", err)
	}
}

func TestAnyValidPolicy(t *testing.T) {
	digest := []byte("d")
	s := newTestSigner(t, "org", "x", RoleMember)
	if err := (AnyValid{}).Evaluate(digest, []Endorsement{endorse(t, s, digest)}); err != nil {
		t.Fatal(err)
	}
	if err := (AnyValid{}).Evaluate(digest, nil); err == nil {
		t.Fatal("empty endorsements satisfied AnyValid")
	}
}

func TestPolicyDescribe(t *testing.T) {
	for _, p := range []Policy{TwoThirds(4), OrgCoveragePolicy{Threshold: 2, MinOrgs: 2}, AnyValid{}} {
		if p.Describe() == "" {
			t.Fatalf("%T has empty description", p)
		}
	}
}
