package msp

import "testing"

func BenchmarkSign(b *testing.B) {
	s, err := NewSigner("org", "bench", RoleMember)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sign(msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	s, err := NewSigner("org", "bench", RoleMember)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256)
	sig := s.Sign(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Identity.Verify(msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

// benchItems builds a batch of n distinct signed envelopes.
func benchItems(b *testing.B, n int) []VerifyItem {
	b.Helper()
	items := make([]VerifyItem, n)
	for i := range items {
		s, err := NewSigner("org", string(rune('a'+i%26)), RoleMember)
		if err != nil {
			b.Fatal(err)
		}
		msg := make([]byte, 256)
		msg[0] = byte(i)
		msg[1] = byte(i >> 8)
		items[i] = VerifyItem{Identity: s.Identity, Message: msg, Signature: s.Sign(msg)}
	}
	return items
}

// BenchmarkVerifySerial32 is the baseline the batch path is measured
// against: 32 envelopes verified one at a time.
func BenchmarkVerifySerial32(b *testing.B) {
	items := benchItems(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			if !it.Identity.Verify(it.Message, it.Signature) {
				b.Fatal("verify failed")
			}
		}
	}
}

// BenchmarkVerifyBatch32 verifies the same 32 envelopes through the
// parallel batch verifier.
func BenchmarkVerifyBatch32(b *testing.B) {
	items := benchItems(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !VerifyBatch(items) {
			b.Fatal("batch verify failed")
		}
	}
}

// BenchmarkEndorsersResolve is the commit-time endorsement check: resolve
// seven fingerprints, verify seven signatures, count the members.
func BenchmarkEndorsersResolve(b *testing.B) {
	digest := []byte("digest-to-endorse-0123456789abcd")
	var ends []EndorsementRef
	var ids []Identity
	for i := 0; i < 7; i++ {
		s, err := NewSigner("org", string(rune('a'+i)), RoleMember)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, s.Identity)
		ends = append(ends, Endorsement{Endorser: s.Identity, Signature: s.Sign(digest)}.Ref())
	}
	members, err := NewRegistry(ids...)
	if err != nil {
		b.Fatal(err)
	}
	pol := TwoThirds(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pol.Evaluate(members.Endorsers(digest, ends)); err != nil {
			b.Fatal(err)
		}
	}
}
