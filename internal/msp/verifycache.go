package msp

import (
	"container/list"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"socialchain/internal/metrics"
	"socialchain/internal/obs"
)

// DefaultVerifyCacheSize bounds a VerifyCache built with size <= 0. The
// figure is sized for a 4-peer deployment's working set: every quorum
// message and endorsement in flight fits with room for gossip re-delivery.
const DefaultVerifyCacheSize = 4096

// VerifyCache memoises Ed25519 verification outcomes in a bounded LRU.
// Consensus re-verifies the same bytes many times — pre-prepare evidence is
// checked once per prepare (2f+1 times per sequence), endorsements once for
// the watchdog and again for the policy, and synced blocks repeat the
// original commit's work — but `(pubkey, msg, sig)` fully determines the
// verdict, so the second sight of a tuple can be answered from memory.
//
// Both positive and negative outcomes are cached: the key covers the whole
// tuple, so a forged signature caches as false and cannot later be upgraded
// (different bytes hash to a different key). A nil *VerifyCache is valid
// and falls through to direct verification, so call sites need no guards.
type VerifyCache struct {
	mu      sync.Mutex
	cap     int
	entries map[[32]byte]*list.Element
	order   *list.List // front = most recently used

	hits   metrics.Counter
	misses metrics.Counter
}

type verifyCacheEntry struct {
	key [32]byte
	ok  bool
}

// NewVerifyCache returns an LRU verify cache bounded to size entries
// (DefaultVerifyCacheSize when size <= 0). The map grows with use: a
// deployment builds one cache per peer and per validator, and a cache that
// has seen no signature costs a struct.
func NewVerifyCache(size int) *VerifyCache {
	if size <= 0 {
		size = DefaultVerifyCacheSize
	}
	return &VerifyCache{
		cap:     size,
		entries: make(map[[32]byte]*list.Element),
		order:   list.New(),
	}
}

// Reset forgets every cached verdict and keeps the hit/miss counters: the
// owner calls it when it stops, so a stopped node something still points
// at does not hold a full cache. The cache stays usable (nil-safe).
func (c *VerifyCache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[[32]byte]*list.Element)
	c.order.Init()
}

// verifyCacheKey collapses the (pubkey, msg, sig) tuple into a fixed key.
// Each field is length-framed so distinct tuples cannot collide by sliding
// bytes across field boundaries.
func verifyCacheKey(pub ed25519.PublicKey, msg, sig []byte) [32]byte {
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

// Verify checks sig over msg for id, consulting the cache first. On a nil
// receiver it degrades to id.Verify.
func (c *VerifyCache) Verify(id Identity, msg, sig []byte) bool {
	if c == nil {
		return id.Verify(msg, sig)
	}
	key := verifyCacheKey(id.PubKey, msg, sig)
	if ok, cached := c.lookup(key); cached {
		return ok
	}
	ok := id.Verify(msg, sig)
	c.store(key, ok)
	return ok
}

// lookup returns (verdict, found) and promotes a found entry to MRU.
func (c *VerifyCache) lookup(key [32]byte) (bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		c.misses.Inc()
		return false, false
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*verifyCacheEntry).ok, true
}

// store records a verdict, evicting the LRU entry at capacity.
func (c *VerifyCache) store(key [32]byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.entries[key]; found {
		c.order.MoveToFront(el)
		el.Value.(*verifyCacheEntry).ok = ok
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*verifyCacheEntry).key)
		}
	}
	c.entries[key] = c.order.PushFront(&verifyCacheEntry{key: key, ok: ok})
}

// Register publishes the cache's hit/miss counters into an obs registry
// (nil-safe on both sides): the hot-path accounting that previously only
// tests could reach becomes scrapeable at /metrics.
func (c *VerifyCache) Register(reg *obs.Registry) {
	if c == nil {
		return
	}
	reg.CounterFunc("verify_cache_hits_total", "Signature verifications answered from the verify cache.", c.hits.Load)
	reg.CounterFunc("verify_cache_misses_total", "Signature verifications that ran ed25519.", c.misses.Load)
}

// Hits reports cache hits (nil-safe).
func (c *VerifyCache) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses reports cache misses (nil-safe).
func (c *VerifyCache) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// Len reports the resident entry count (nil-safe).
func (c *VerifyCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
