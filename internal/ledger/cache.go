package ledger

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// blockCacheBytes bounds the decoded blocks a log-backed ledger keeps in
// memory, counted by their encoded size (a decoded block is that plus its
// struct and slice headers). Only GetBlock and
// GetTx fill it — committing a block does not, and scans (Iterate,
// VerifyChain, Export, BlocksFrom) stream past it — so a peer nobody
// browses holds no blocks at all.
const blockCacheBytes = 4 << 20

// blockCache is a byte-bounded LRU of decoded blocks, keyed by number.
type blockCache struct {
	mu    sync.Mutex
	max   int64
	used  int64
	order list.List // most recently used at the front
	byNum map[uint64]*list.Element

	hits, misses atomic.Int64
}

type cachedBlock struct {
	b    *Block
	size int64
}

func (c *blockCache) get(n uint64) *Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byNum[n]
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	c.order.MoveToFront(el)
	return el.Value.(cachedBlock).b
}

// clear drops every cached block.
func (c *blockCache) clear() {
	c.mu.Lock()
	c.order.Init()
	c.byNum, c.used = nil, 0
	c.mu.Unlock()
}

// add caches b, evicting from the cold end. A block larger than the whole
// budget is not kept: it would evict everything and then be evicted by
// the next add.
func (c *blockCache) add(b *Block, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := b.Header.Number
	if _, ok := c.byNum[n]; ok || size > c.max {
		return
	}
	if c.byNum == nil {
		c.byNum = make(map[uint64]*list.Element)
	}
	c.byNum[n] = c.order.PushFront(cachedBlock{b: b, size: size})
	c.used += size
	for c.used > c.max {
		el := c.order.Back()
		old := c.order.Remove(el).(cachedBlock)
		delete(c.byNum, old.b.Header.Number)
		c.used -= old.size
	}
}
