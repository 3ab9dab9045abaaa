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
	f := s.Identity.Fingerprint()
	if f != s.Identity.Fingerprint() {
		t.Fatal("fingerprint unstable")
	}
	text, _ := f.MarshalText()
	if len(text) != 16 || f.String() != string(text) {
		t.Fatalf("fingerprint text %q", text)
	}
	var back Fingerprint
	if err := back.UnmarshalText(text); err != nil || back != f {
		t.Fatalf("round trip: %v, %s", err, back)
	}
	for _, bad := range []string{"", "abcd", string(text[:14]), string(text) + "00", "zz" + string(text[2:])} {
		if err := back.UnmarshalText([]byte(bad)); err == nil {
			t.Fatalf("fingerprint text %q accepted", bad)
		}
	}
}

func TestRegistryResolves(t *testing.T) {
	a := newTestSigner(t, "org1", "a", RoleMember)
	b := newTestSigner(t, "org2", "b", RoleAdmin)
	r, err := NewRegistry(a.Identity, b.Identity)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(a.Identity, b.Identity, a.Identity); err == nil {
		t.Fatal("one key admitted under two entries")
	}
	got, ok := r.Resolve(a.Identity.Fingerprint())
	if !ok || got.ID() != "org1/a" {
		t.Fatal("resolve failed")
	}
	// Same name, other key: the name is not what is resolved.
	if _, ok := r.Resolve(newTestSigner(t, "org1", "a", RoleMember).Identity.Fingerprint()); ok {
		t.Fatal("an outsider styled org1/a resolved")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	var none *Registry
	if _, ok := none.Resolve(a.Identity.Fingerprint()); ok || none.Len() != 0 {
		t.Fatal("nil registry knows somebody")
	}
	if got := none.Endorsers([]byte("d"), []EndorsementRef{endorse(a, []byte("d"))}); len(got) != 0 {
		t.Fatalf("nil registry counted %d endorsers", len(got))
	}
}

func endorse(s *Signer, digest []byte) EndorsementRef {
	return Endorsement{Endorser: s.Identity, Digest: digest, Signature: s.Sign(digest)}.Ref()
}

// testMembers returns n signers and the registry admitting them.
func testMembers(t *testing.T, n int, org func(i int) string) ([]*Signer, *Registry) {
	t.Helper()
	signers := make([]*Signer, n)
	ids := make([]Identity, n)
	for i := range signers {
		signers[i] = newTestSigner(t, org(i), string(rune('a'+i)), RoleMember)
		ids[i] = signers[i].Identity
	}
	r, err := NewRegistry(ids...)
	if err != nil {
		t.Fatal(err)
	}
	return signers, r
}

func oneOrg(int) string { return "org" }

func TestQuorumPolicy(t *testing.T) {
	digest := []byte("result-digest")
	signers, members := testMembers(t, 4, oneOrg)
	pol := TwoThirds(4) // threshold 3
	if pol.Threshold != 3 {
		t.Fatalf("TwoThirds(4).Threshold = %d", pol.Threshold)
	}

	var ends []EndorsementRef
	for i := 0; i < 3; i++ {
		ends = append(ends, endorse(signers[i], digest))
	}
	if err := pol.Evaluate(members.Endorsers(digest, ends)); err != nil {
		t.Fatalf("3/4 endorsements should satisfy: %v", err)
	}
	if err := pol.Evaluate(members.Endorsers(digest, ends[:2])); err == nil {
		t.Fatal("2/4 endorsements must not satisfy")
	}
}

// TestEndorsersCountsMembersOnce: what does not count — a repeat, a bad
// signature, a signature over another digest, an outsider, a member's
// fingerprint over another key's signature — and that none of them cancels
// a valid endorsement beside it, checked alone or with every other case's
// endorsements in one batch (the way a peer validates a block).
func TestEndorsersCountsMembersOnce(t *testing.T) {
	digest := []byte("d")
	signers, members := testMembers(t, 2, oneOrg)
	s, other := signers[0], signers[1]
	outsider := newTestSigner(t, "org", "a", RoleMember) // named like s
	e := endorse(s, digest)
	forged := EndorsementRef{Signer: e.Signer, Signature: make([]byte, 64)}
	borrowed := EndorsementRef{Signer: e.Signer, Signature: outsider.Sign(digest)}
	cases := []struct {
		name string
		ends []EndorsementRef
		want int
	}{
		{"one", []EndorsementRef{e}, 1},
		{"repeated three times", []EndorsementRef{e, e, e}, 1},
		{"forged signature", []EndorsementRef{e, forged}, 1},
		{"forged first does not cancel", []EndorsementRef{forged, e}, 1},
		{"wrong digest", []EndorsementRef{e, endorse(other, []byte("other"))}, 1},
		{"outsider, valid signature", []EndorsementRef{e, endorse(outsider, digest)}, 1},
		{"member's fingerprint, another key's signature", []EndorsementRef{borrowed}, 0},
		{"two members", []EndorsementRef{e, endorse(other, digest)}, 2},
		{"malformed signature", []EndorsementRef{{Signer: e.Signer, Signature: []byte{1, 2}}}, 0},
		{"none", nil, 0},
	}
	var items []VerifyItem
	bounds := make([]int, len(cases)+1)
	for i, c := range cases {
		items = members.EndorsementChecks(items, digest, c.ends)
		bounds[i+1] = len(items)
	}
	verdicts := VerifyBatchEach(items)
	for i, c := range cases {
		lo, hi := bounds[i], bounds[i+1]
		for _, got := range [][]Identity{members.Endorsers(digest, c.ends), Signers(items[lo:hi], verdicts[lo:hi])} {
			if len(got) != c.want {
				t.Errorf("%s: %d endorsers, want %d", c.name, len(got), c.want)
			}
			if c.want > 0 && got[0].ID() != s.Identity.ID() {
				t.Errorf("%s: first endorser %s", c.name, got[0].ID())
			}
		}
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
	signers, members := testMembers(t, 3, func(i int) string { return []string{"orgA", "orgA", "orgB"}[i] })
	a1, a2, b1 := signers[0], signers[1], signers[2]
	pol := OrgCoveragePolicy{Threshold: 2, MinOrgs: 2}
	sameOrg := []EndorsementRef{endorse(a1, digest), endorse(a2, digest)}
	if err := pol.Evaluate(members.Endorsers(digest, sameOrg)); err == nil {
		t.Fatal("single-org endorsements satisfied a 2-org policy")
	}
	crossOrg := []EndorsementRef{endorse(a1, digest), endorse(b1, digest)}
	if err := pol.Evaluate(members.Endorsers(digest, crossOrg)); err != nil {
		t.Fatalf("cross-org endorsements rejected: %v", err)
	}
}

func TestAnyValidPolicy(t *testing.T) {
	s := newTestSigner(t, "org", "x", RoleMember)
	if err := (AnyValid{}).Evaluate([]Identity{s.Identity}); err != nil {
		t.Fatal(err)
	}
	if err := (AnyValid{}).Evaluate(nil); err == nil {
		t.Fatal("no endorsers satisfied AnyValid")
	}
}

func TestPolicyDescribe(t *testing.T) {
	for _, p := range []Policy{TwoThirds(4), OrgCoveragePolicy{Threshold: 2, MinOrgs: 2}, AnyValid{}} {
		if p.Describe() == "" {
			t.Fatalf("%T has empty description", p)
		}
	}
}
