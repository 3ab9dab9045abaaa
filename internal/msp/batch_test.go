package msp

import (
	"fmt"
	"math/rand"
	"testing"
)

// batchSigners generates n keypairs for batch tests.
func batchSigners(t testing.TB, n int) []*Signer {
	t.Helper()
	out := make([]*Signer, n)
	for i := range out {
		s, err := NewSigner("org", fmt.Sprintf("s%d", i), RoleMember)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// randomItems builds n verify items over random messages, each signed by a
// random signer; corrupt selects indices whose signature (or message) is
// then flipped.
func randomItems(t testing.TB, rng *rand.Rand, signers []*Signer, n int, corrupt map[int]bool) []VerifyItem {
	t.Helper()
	items := make([]VerifyItem, n)
	for i := range items {
		s := signers[rng.Intn(len(signers))]
		msg := make([]byte, 1+rng.Intn(128))
		rng.Read(msg)
		sig := s.Sign(msg)
		if corrupt[i] {
			switch rng.Intn(3) {
			case 0:
				sig[rng.Intn(len(sig))] ^= 0x01
			case 1:
				msg[rng.Intn(len(msg))] ^= 0x01
			default:
				sig = sig[:len(sig)-1] // malformed length must reject, not panic
			}
		}
		items[i] = VerifyItem{Identity: s.Identity, Message: msg, Signature: sig}
	}
	return items
}

// TestVerifyBatchEquivalenceRandomized is the randomized equivalence fuzz:
// across many random batches — varying sizes, signer reuse, duplicate
// tuples, corrupted subsets — VerifyBatchEach must agree item-for-item with
// per-signature Identity.Verify, and VerifyBatch with the conjunction. A
// Verifier agrees too, and counts each distinct tuple as one ed25519 run.
func TestVerifyBatchEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	signers := batchSigners(t, 5)
	for round := 0; round < 60; round++ {
		n := rng.Intn(40)
		corrupt := map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				corrupt[i] = true
			}
		}
		items := randomItems(t, rng, signers, n, corrupt)
		// Inject duplicates: copy earlier items over later slots.
		for i := range items {
			if i > 0 && rng.Intn(5) == 0 {
				items[i] = items[rng.Intn(i)]
			}
		}
		want := make([]bool, len(items))
		allValid := true
		for i, it := range items {
			want[i] = it.Identity.Verify(it.Message, it.Signature)
			allValid = allValid && want[i]
		}
		check := func(name string, got []bool) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("round %d %s: %d verdicts for %d items", round, name, len(got), len(items))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d %s: item %d = %v, per-signature Verify = %v", round, name, i, got[i], want[i])
				}
			}
		}
		check("batch", VerifyBatchEach(items))
		if VerifyBatch(items) != allValid {
			t.Fatalf("round %d: VerifyBatch = %v, want %v", round, !allValid, allValid)
		}
		var v Verifier
		check("verifier", v.VerifyBatchEach(items))
		distinct := map[string]bool{}
		for _, it := range items {
			distinct[fmt.Sprintf("%x/%x/%x", it.Identity.PubKey, it.Message, it.Signature)] = true
		}
		if skipped, verified := v.Stats(); verified != int64(len(distinct)) || skipped+verified != int64(len(items)) {
			t.Fatalf("round %d: %d items, %d distinct: verifier counted %d skipped, %d verified", round, len(items), len(distinct), skipped, verified)
		}
	}
}

// TestVerifyBatchCorruptedOneOfN checks that a single corrupted signature
// anywhere in an otherwise valid batch is rejected — for every position.
func TestVerifyBatchCorruptedOneOfN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	signers := batchSigners(t, 3)
	const n = 12
	for bad := 0; bad < n; bad++ {
		items := randomItems(t, rng, signers, n, map[int]bool{bad: true})
		if VerifyBatch(items) {
			t.Fatalf("batch with corrupted item %d accepted", bad)
		}
		each := VerifyBatchEach(items)
		if each[bad] {
			t.Fatalf("corrupted item %d verified", bad)
		}
		good := 0
		for i, ok := range each {
			if i != bad && ok {
				good++
			}
		}
		if good != n-1 {
			t.Fatalf("corrupting item %d poisoned others: %d/%d valid", bad, good, n-1)
		}
	}
}

// TestVerifyBatchEmptyAndDuplicates pins the edge cases: an empty batch is
// vacuously valid, and a batch of one tuple repeated N times agrees with
// the single verification (both verdicts).
func TestVerifyBatchEmptyAndDuplicates(t *testing.T) {
	if !VerifyBatch(nil) {
		t.Fatal("empty batch rejected")
	}
	if got := VerifyBatchEach(nil); len(got) != 0 {
		t.Fatalf("empty batch produced %d verdicts", len(got))
	}
	s := batchSigners(t, 1)[0]
	msg := []byte("dup")
	sig := s.Sign(msg)
	dup := make([]VerifyItem, 8)
	for i := range dup {
		dup[i] = VerifyItem{Identity: s.Identity, Message: msg, Signature: sig}
	}
	for i, ok := range VerifyBatchEach(dup) {
		if !ok {
			t.Fatalf("duplicate item %d rejected", i)
		}
	}
	bad := append([]byte(nil), sig...)
	bad[0] ^= 0xFF
	for i := range dup {
		dup[i].Signature = bad
	}
	for i, ok := range VerifyBatchEach(dup) {
		if ok {
			t.Fatalf("duplicated bad item %d accepted", i)
		}
	}
}

// TestVerifyBatchDedupKeyCoversTuple: the batch verifier runs ed25519 once
// per distinct (pubkey, msg, sig) and shares that verdict with repeats, so
// tuples that differ in any field — another identity, or one byte slid
// across the msg/sig boundary — must never be grouped under one verdict.
func TestVerifyBatchDedupKeyCoversTuple(t *testing.T) {
	ss := batchSigners(t, 2)
	msg := []byte("tuple")
	sig0 := ss[0].Sign(msg)
	joined := append(append([]byte(nil), msg...), sig0...)
	items := []VerifyItem{
		{Identity: ss[0].Identity, Message: msg, Signature: sig0},
		{Identity: ss[1].Identity, Message: msg, Signature: sig0},
		{Identity: ss[0].Identity, Message: joined[:len(msg)+1], Signature: joined[len(msg)+1:]},
		{Identity: ss[0].Identity, Message: msg, Signature: sig0},
	}
	var v Verifier
	got := v.VerifyBatchEach(items)
	if want := []bool{true, false, false, true}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("verdicts %v, want %v", got, want)
	}
	if skipped, verified := v.Stats(); skipped != 1 || verified != 3 {
		t.Fatalf("skipped %d, verified %d; want the one exact repeat skipped and 3 distinct tuples verified", skipped, verified)
	}
}
