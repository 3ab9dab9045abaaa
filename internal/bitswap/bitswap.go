// Package bitswap implements the block-exchange protocol of the off-chain
// store: peers request wanted blocks from providers discovered via the DHT
// and serve blocks from their local stores, with per-peer transfer
// statistics. It is a faithful, simplified analogue of IPFS bitswap:
// wantlists, provider sessions and parallel fetches.
package bitswap

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"socialchain/internal/blockstore"
	"socialchain/internal/cid"
	"socialchain/internal/sim"
)

// ErrBlockUnavailable is returned when no provider can serve a wanted block.
var ErrBlockUnavailable = errors.New("bitswap: block unavailable from all providers")

// Network registers engines by peer name and simulates the wire with a
// latency model.
type Network struct {
	mu      sync.RWMutex
	engines map[string]*Engine
	latency sim.LatencyModel
	clock   sim.Clock
}

// NewNetwork creates a bitswap network (nil latency = zero delay).
func NewNetwork(latency sim.LatencyModel, clock sim.Clock) *Network {
	if latency == nil {
		latency = sim.ZeroLatency{}
	}
	if clock == nil {
		clock = sim.RealClock{}
	}
	return &Network{engines: make(map[string]*Engine), latency: latency, clock: clock}
}

func (n *Network) lookup(name string) (*Engine, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	e, ok := n.engines[name]
	if !ok {
		return nil, fmt.Errorf("bitswap: unknown peer %q", name)
	}
	return e, nil
}

// Stats counts a peer's transfer activity.
type Stats struct {
	BlocksSent     atomic.Uint64
	BlocksReceived atomic.Uint64
	BytesSent      atomic.Uint64
	BytesReceived  atomic.Uint64
}

// Engine serves and fetches blocks for one peer.
type Engine struct {
	name  string
	bs    blockstore.Blockstore
	net   *Network
	stats Stats

	mu       sync.Mutex
	wantlist map[cid.Cid]bool
}

// NewEngine registers a peer's engine over its blockstore.
func (n *Network) NewEngine(name string, bs blockstore.Blockstore) *Engine {
	e := &Engine{name: name, bs: bs, net: n, wantlist: make(map[cid.Cid]bool)}
	n.mu.Lock()
	n.engines[name] = e
	n.mu.Unlock()
	return e
}

// Want asks peer to for block c on behalf of from: a latency-delayed round
// trip to the named engine. An error means the peer is unknown or does not
// hold the block; the fetcher then tries the next provider.
func (n *Network) Want(from, to string, c cid.Cid) (blockstore.Block, error) {
	remote, err := n.lookup(to)
	if err != nil {
		return blockstore.Block{}, err
	}
	n.clockDelay(from, to)
	b, ok := remote.handleWant(c)
	if !ok {
		return blockstore.Block{}, fmt.Errorf("bitswap: %s does not hold %s", to, c)
	}
	n.clockDelay(to, from)
	return b, nil
}

// Name returns the engine's peer name.
func (e *Engine) Name() string { return e.name }

// Stats exposes transfer counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// Wantlist returns the currently wanted CIDs in deterministic order.
func (e *Engine) Wantlist() []cid.Cid {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]cid.Cid, 0, len(e.wantlist))
	for c := range e.wantlist {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (e *Engine) want(c cid.Cid) {
	e.mu.Lock()
	e.wantlist[c] = true
	e.mu.Unlock()
}

func (e *Engine) unwant(c cid.Cid) {
	e.mu.Lock()
	delete(e.wantlist, c)
	e.mu.Unlock()
}

// handleWant is the server side: return the block if held locally.
func (e *Engine) handleWant(c cid.Cid) (blockstore.Block, bool) {
	b, err := e.bs.Get(c)
	if err != nil {
		return blockstore.Block{}, false
	}
	e.stats.BlocksSent.Add(1)
	e.stats.BytesSent.Add(uint64(len(b.Data)))
	return b, true
}

// FetchBlock retrieves one block from the given providers, trying each in
// order. The fetched block is verified (content addressing) and stored in
// the local blockstore.
func (e *Engine) FetchBlock(c cid.Cid, providers []string) (blockstore.Block, error) {
	if b, err := e.bs.Get(c); err == nil {
		return b, nil
	}
	e.want(c)
	defer e.unwant(c)
	for _, p := range providers {
		if p == e.name {
			continue
		}
		b, err := e.net.Want(e.name, p, c)
		if err != nil {
			continue
		}
		// Put verifies the block's hash, so a corrupt or dishonest provider
		// cannot poison the store.
		if err := e.bs.Put(b); err != nil {
			continue
		}
		e.stats.BlocksReceived.Add(1)
		e.stats.BytesReceived.Add(uint64(len(b.Data)))
		return b, nil
	}
	return blockstore.Block{}, fmt.Errorf("%w: %s", ErrBlockUnavailable, c)
}

func (n *Network) clockDelay(from, to string) {
	if d := n.latency.Delay(from, to); d > 0 {
		n.clock.Sleep(d)
	}
}

// fetchConcurrency bounds parallel block fetches in FetchMany.
const fetchConcurrency = 8

// FetchMany retrieves a set of blocks in parallel from the providers,
// storing them locally. It fails fast on the first unavailable block.
func (e *Engine) FetchMany(cids []cid.Cid, providers []string) error {
	if len(cids) == 0 {
		return nil
	}
	sem := make(chan struct{}, fetchConcurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, c := range cids {
		wg.Add(1)
		sem <- struct{}{}
		go func(c cid.Cid) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := e.FetchBlock(c, providers); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return firstErr
}
