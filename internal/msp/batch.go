package msp

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"socialchain/internal/obs"
)

// VerifyItem is one signature check in a batch: did Identity sign Message
// with Signature?
type VerifyItem struct {
	Identity  Identity
	Message   []byte
	Signature []byte
}

// VerifyBatch checks every item and reports whether all verify — the
// all-or-nothing contract of ed25519 batch verification. The standard
// library exposes no true batch equation, so the amortisation here comes
// from deduplicating identical tuples (gossip and quorum traffic repeat
// them heavily) and fanning the residual independent verifications across
// cores. An empty batch is vacuously valid.
func VerifyBatch(items []VerifyItem) bool {
	for _, ok := range VerifyBatchEach(items) {
		if !ok {
			return false
		}
	}
	return true
}

// VerifyBatchEach checks every item and returns a per-item verdict slice,
// for callers (block validation) that must flag individual failures rather
// than reject the whole batch. Duplicate tuples are verified once.
func VerifyBatchEach(items []VerifyItem) []bool {
	results, _ := verifyBatchEach(items)
	return results
}

// Verifier runs one node's signature checks and counts them. Every
// signature is checked where it is met — there is no memory of earlier
// verdicts — so the counts say how many checks ran ed25519 and how many
// were answered without it: a tuple repeated inside one batch, or bytes
// the caller holds already verified (Skip). The zero value is ready.
type Verifier struct {
	skipped, verified atomic.Int64
}

// Verify checks sig over msg for id.
func (v *Verifier) Verify(id Identity, msg, sig []byte) bool {
	v.verified.Add(1)
	return id.Verify(msg, sig)
}

// VerifyBatchEach is the package-level VerifyBatchEach, counted.
func (v *Verifier) VerifyBatchEach(items []VerifyItem) []bool {
	results, ran := verifyBatchEach(items)
	v.verified.Add(int64(ran))
	v.skipped.Add(int64(len(items) - ran))
	return results
}

// Skip counts a check the caller answered without running ed25519.
func (v *Verifier) Skip() { v.skipped.Add(1) }

// Stats reports the checks answered without ed25519 and those that ran it.
func (v *Verifier) Stats() (skipped, verified int64) {
	return v.skipped.Load(), v.verified.Load()
}

// Register publishes both counts into an obs registry (nil-safe).
func (v *Verifier) Register(reg *obs.Registry) {
	reg.CounterFunc("signature_checks_skipped_total", "Signature checks answered without running ed25519: in-batch duplicates and byte-identical evidence.", v.skipped.Load)
	reg.CounterFunc("signature_verifications_total", "Signature checks that ran ed25519.", v.verified.Load)
}

// tupleKey collapses the (pubkey, msg, sig) tuple into a fixed key for
// in-batch deduplication. Each field is length-framed so distinct tuples
// cannot collide by sliding bytes across field boundaries.
func tupleKey(pub ed25519.PublicKey, msg, sig []byte) [32]byte {
	h := sha256.New()
	var frame [8]byte
	for _, field := range [][]byte{pub, msg, sig} {
		binary.BigEndian.PutUint64(frame[:], uint64(len(field)))
		h.Write(frame[:])
		h.Write(field)
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// verifyBatchEach returns the per-item verdicts and how many distinct
// tuples it ran ed25519 on.
func verifyBatchEach(items []VerifyItem) ([]bool, int) {
	if len(items) == 0 {
		return nil, 0
	}
	results := make([]bool, len(items))

	// Collapse duplicate tuples so each distinct (pubkey, msg, sig) hits
	// ed25519.Verify once per batch.
	type job struct {
		first int   // index whose verdict the group shares
		rest  []int // further indices with the identical tuple
	}
	groups := make(map[[32]byte]*job, len(items))
	var jobs []*job
	for i, it := range items {
		key := tupleKey(it.Identity.PubKey, it.Message, it.Signature)
		if g, dup := groups[key]; dup {
			g.rest = append(g.rest, i)
			continue
		}
		g := &job{first: i}
		groups[key] = g
		jobs = append(jobs, g)
	}

	// Fan the distinct tuples across cores; small batches stay serial to
	// avoid goroutine overhead dominating a couple of verifications.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 || len(jobs) < 4 {
		for _, g := range jobs {
			it := items[g.first]
			results[g.first] = it.Identity.Verify(it.Message, it.Signature)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan *job)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for g := range next {
					it := items[g.first]
					results[g.first] = it.Identity.Verify(it.Message, it.Signature)
				}
			}()
		}
		for _, g := range jobs {
			next <- g
		}
		close(next)
		wg.Wait()
	}

	// Propagate group verdicts to duplicates.
	for _, g := range jobs {
		for _, i := range g.rest {
			results[i] = results[g.first]
		}
	}
	return results, len(jobs)
}
