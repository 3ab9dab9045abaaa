package query

import (
	"container/list"
	"sync"

	"socialchain/internal/metrics"
	"socialchain/internal/obs"
)

// payloadCache is a size-bounded, CID-keyed LRU over verified payloads.
// The retrieval pipeline reads through it: a hit skips the whole IPFS
// executor (bitswap fetch, DAG reassembly); only payloads that
// passed hash verification are admitted, so a hit can serve bytes without
// re-fetching while the caller still re-verifies against the on-chain
// hash it resolved for this transaction. Payloads larger than the cache
// capacity are never admitted (they would evict everything for one entry).
type payloadCache struct {
	mu       sync.Mutex
	capBytes int
	size     int
	order    *list.List // front = most recently used
	items    map[string]*list.Element

	hits      metrics.Counter
	misses    metrics.Counter
	evictions metrics.Counter
}

type cacheEntry struct {
	cid     string
	payload []byte
}

// newPayloadCache returns a cache bounded to capBytes of payload.
func newPayloadCache(capBytes int) *payloadCache {
	return &payloadCache{
		capBytes: capBytes,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the cached payload for cid, promoting it to most recently
// used. The returned slice is shared: callers must not mutate it.
func (c *payloadCache) get(cid string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[cid]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).payload, true
}

// put admits a payload, evicting least-recently-used entries to fit.
func (c *payloadCache) put(cid string, payload []byte) {
	if len(payload) > c.capBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[cid]; ok {
		// Same CID means same content (it is a hash); just promote.
		c.order.MoveToFront(el)
		return
	}
	for c.size+len(payload) > c.capBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.items, victim.cid)
		c.size -= len(victim.payload)
		c.evictions.Inc()
	}
	c.items[cid] = c.order.PushFront(&cacheEntry{cid: cid, payload: payload})
	c.size += len(payload)
}

// CacheStats reports payload-cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Bytes is the current cached payload volume; Entries the entry count.
	Bytes   int
	Entries int
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// RegisterObs publishes the payload cache's counters and hit rate into an
// obs registry (no-op without a configured cache), so retrieval cache
// effectiveness shows up at /metrics beside the write-path series.
func (e *Engine) RegisterObs(reg *obs.Registry) {
	c := e.cache
	if c == nil {
		return
	}
	reg.CounterFunc("payload_cache_hits_total", "Payload retrievals served from the verified LRU cache.", c.hits.Load)
	reg.CounterFunc("payload_cache_misses_total", "Payload retrievals that went through the IPFS executor.", c.misses.Load)
	reg.CounterFunc("payload_cache_evictions_total", "Payloads evicted from the cache.", c.evictions.Load)
	reg.GaugeFunc("payload_cache_bytes", "Current cached payload volume in bytes.", func() float64 {
		return float64(e.CacheStats().Bytes)
	})
}

func (c *payloadCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.size,
		Entries:   len(c.items),
	}
}
