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
// per-signature Identity.Verify, and VerifyBatch with the conjunction. The
// cache-aware paths must agree too, both cold and warm.
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
		check("uncached", VerifyBatchEach(items))
		if VerifyBatch(items) != allValid {
			t.Fatalf("round %d: VerifyBatch = %v, want %v", round, !allValid, allValid)
		}
		cache := NewVerifyCache(0)
		check("cache-cold", cache.VerifyBatchEach(items))
		check("cache-warm", cache.VerifyBatchEach(items))
		if cache.VerifyBatch(items) != allValid {
			t.Fatalf("round %d: cached VerifyBatch = %v, want %v", round, !allValid, allValid)
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

// TestVerifyCacheBasics covers hit/miss accounting, negative caching,
// Reset and the nil-receiver fallback.
func TestVerifyCacheBasics(t *testing.T) {
	s := batchSigners(t, 1)[0]
	msg := []byte("cached message")
	sig := s.Sign(msg)
	c := NewVerifyCache(8)
	if !c.Verify(s.Identity, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if c.Hits() != 0 || c.Misses() != 1 {
		t.Fatalf("after first verify: hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if !c.Verify(s.Identity, msg, sig) {
		t.Fatal("cached valid signature rejected")
	}
	if c.Hits() != 1 {
		t.Fatalf("second verify did not hit: hits=%d", c.Hits())
	}
	// Negative result caches under its own key and stays negative.
	bad := append([]byte(nil), sig...)
	bad[3] ^= 0x10
	for i := 0; i < 2; i++ {
		if c.Verify(s.Identity, msg, bad) {
			t.Fatal("bad signature accepted")
		}
	}
	if c.Hits() != 2 {
		t.Fatalf("negative entry did not hit: hits=%d", c.Hits())
	}
	// Reset forgets the verdicts, keeps the counters and leaves the cache
	// usable: the next sight of a tuple is a miss, the one after a hit.
	c.Reset()
	if c.Len() != 0 || c.Hits() != 2 || c.Misses() != 2 {
		t.Fatalf("after Reset: len=%d hits=%d misses=%d", c.Len(), c.Hits(), c.Misses())
	}
	if !c.Verify(s.Identity, msg, sig) || !c.Verify(s.Identity, msg, sig) || c.Misses() != 3 || c.Hits() != 3 {
		t.Fatalf("cache unusable after Reset: hits=%d misses=%d", c.Hits(), c.Misses())
	}
	// Nil receiver falls through to direct verification.
	var nilCache *VerifyCache
	nilCache.Reset()
	if !nilCache.Verify(s.Identity, msg, sig) || nilCache.Verify(s.Identity, msg, bad) {
		t.Fatal("nil cache verification wrong")
	}
	if nilCache.Hits() != 0 || nilCache.Misses() != 0 || nilCache.Len() != 0 {
		t.Fatal("nil cache stats not zero")
	}
}

// TestVerifyCacheEviction checks the LRU bound: capacity is respected and
// the least recently used entry is the one evicted.
func TestVerifyCacheEviction(t *testing.T) {
	s := batchSigners(t, 1)[0]
	c := NewVerifyCache(4)
	msgs := make([][]byte, 6)
	sigs := make([][]byte, 6)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("msg-%d", i))
		sigs[i] = s.Sign(msgs[i])
	}
	for i := 0; i < 4; i++ {
		c.Verify(s.Identity, msgs[i], sigs[i])
	}
	if c.Len() != 4 {
		t.Fatalf("len=%d, want 4", c.Len())
	}
	// Touch entry 0 so entry 1 is the LRU, then insert two more.
	c.Verify(s.Identity, msgs[0], sigs[0])
	c.Verify(s.Identity, msgs[4], sigs[4])
	c.Verify(s.Identity, msgs[5], sigs[5])
	if c.Len() != 4 {
		t.Fatalf("len=%d after eviction, want 4", c.Len())
	}
	miss := c.Misses()
	c.Verify(s.Identity, msgs[0], sigs[0]) // touched: still resident
	if c.Misses() != miss {
		t.Fatal("recently used entry was evicted")
	}
	c.Verify(s.Identity, msgs[1], sigs[1]) // LRU: must have been evicted
	if c.Misses() != miss+1 {
		t.Fatal("LRU entry was not evicted")
	}
}

// TestVerifyCacheKeyCoversTuple checks that no field of the (pubkey, msg,
// sig) tuple can be swapped without changing the cache key — a cached
// verdict must never answer for a different tuple.
func TestVerifyCacheKeyCoversTuple(t *testing.T) {
	ss := batchSigners(t, 2)
	msg := []byte("tuple")
	sig0 := ss[0].Sign(msg)
	c := NewVerifyCache(16)
	if !c.Verify(ss[0].Identity, msg, sig0) {
		t.Fatal("valid rejected")
	}
	// Same msg+sig under the other identity must be a miss and fail.
	if c.Verify(ss[1].Identity, msg, sig0) {
		t.Fatal("verdict leaked across identities")
	}
	// Length-framing: shifting a byte between msg and sig changes the key.
	joined := append(append([]byte(nil), msg...), sig0...)
	if c.Verify(ss[0].Identity, joined[:len(msg)+1], joined[len(msg)+1:]) {
		t.Fatal("sliding frame boundary verified")
	}
}
