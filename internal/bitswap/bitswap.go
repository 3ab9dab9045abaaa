// Package bitswap implements the block-exchange protocol of the off-chain
// store: peers ask each other for the blocks they want and serve blocks from
// their local stores, with per-peer transfer statistics. It is a simplified
// analogue of IPFS bitswap: every engine on a Network is connected to every
// other, so a fetch asks the connected peers directly (no provider routing),
// and a Session asks first whichever peer last served it a block.
package bitswap

import (
	"errors"
	"fmt"
	"slices"
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
	engines map[string]server
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
	return &Network{engines: make(map[string]server), latency: latency, clock: clock}
}

// server is what the network sees of a peer: it answers wants with bytes,
// which the wanting side trusts only once they hash to the CID it asked
// for. An Engine answers from its blockstore.
type server interface {
	serve(c cid.Cid) ([]byte, bool)
}

func (n *Network) lookup(name string) (server, error) {
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

// peersOf returns the name of every engine but self, in name order.
func (n *Network) peersOf(self string) []string {
	n.mu.RLock()
	peers := make([]string, 0, len(n.engines))
	for name := range n.engines {
		if name != self {
			peers = append(peers, name)
		}
	}
	n.mu.RUnlock()
	slices.Sort(peers)
	return peers
}

// Engine serves and fetches blocks for one peer.
type Engine struct {
	name  string
	bs    *blockstore.Store
	net   *Network
	stats Stats
}

// NewEngine registers a peer's engine over its blockstore.
func (n *Network) NewEngine(name string, bs *blockstore.Store) *Engine {
	e := &Engine{name: name, bs: bs, net: n}
	n.mu.Lock()
	n.engines[name] = e
	n.mu.Unlock()
	return e
}

// Want asks peer to for block c on behalf of from: a latency-delayed round
// trip to the named engine, returning the bytes it replied with, unchecked.
// An error means the peer is unknown or does not hold the block; the
// fetcher then tries the next provider.
func (n *Network) Want(from, to string, c cid.Cid) ([]byte, error) {
	remote, err := n.lookup(to)
	if err != nil {
		return nil, err
	}
	n.clockDelay(from, to)
	data, ok := remote.serve(c)
	if !ok {
		return nil, fmt.Errorf("bitswap: %s does not hold %s", to, c)
	}
	n.clockDelay(to, from)
	return data, nil
}

// Stats exposes transfer counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// serve is the server side: the block's bytes, if held locally.
func (e *Engine) serve(c cid.Cid) ([]byte, bool) {
	b, err := e.bs.Get(c)
	if err != nil {
		return nil, false
	}
	e.stats.BlocksSent.Add(1)
	e.stats.BytesSent.Add(uint64(len(b.Data())))
	return b.Data(), true
}

// FetchBlock retrieves one block from the given providers, trying each in
// order, and returns it with the name of the provider that served it (empty
// when the block was already local). A reply is hashed once, against c, and
// stored only if it matches: a corrupt or dishonest provider cannot poison
// the store.
func (e *Engine) FetchBlock(c cid.Cid, providers []string) (blockstore.Block, string, error) {
	if b, err := e.bs.Get(c); err == nil {
		return b, "", nil
	}
	for _, p := range providers {
		if p == e.name {
			continue
		}
		data, err := e.net.Want(e.name, p, c)
		if err != nil {
			continue
		}
		b, err := blockstore.Check(c, data)
		if err != nil {
			continue
		}
		if err := e.bs.Put(b); err != nil {
			return blockstore.Block{}, "", err
		}
		e.stats.BlocksReceived.Add(1)
		e.stats.BytesReceived.Add(uint64(len(data)))
		return b, p, nil
	}
	return blockstore.Block{}, "", fmt.Errorf("%w: %s", ErrBlockUnavailable, c)
}

func (n *Network) clockDelay(from, to string) {
	if d := n.latency.Delay(from, to); d > 0 {
		n.clock.Sleep(d)
	}
}

// Session fetches the blocks of one DAG from every other engine on the
// network. It asks them in name order until one serves a block and from then
// on asks that one first, as an IPFS bitswap session does: the peer that
// served the root most likely holds the rest, so on a network of more than
// two engines the non-holders cost a failed round trip for the root only,
// not for every block.
type Session struct {
	e *Engine

	mu    sync.Mutex
	peers []string
}

// NewSession starts a session over the engines on e's network.
func (e *Engine) NewSession() *Session {
	return &Session{e: e, peers: e.net.peersOf(e.name)}
}

// order returns the peers in the order the next fetch asks them.
func (s *Session) order() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.peers)
}

// servedBy moves p to the front of the order.
func (s *Session) servedBy(p string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.peers, p); i > 0 {
		copy(s.peers[1:i+1], s.peers[:i])
		s.peers[0] = p
	}
}

// fetchConcurrency bounds parallel block fetches in FetchMany.
const fetchConcurrency = 8

// FetchMany retrieves a set of blocks in parallel, storing them locally. It
// returns the first fetch error once every fetch has finished.
func (s *Session) FetchMany(cids []cid.Cid) error {
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
			_, p, err := s.e.FetchBlock(c, s.order())
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			s.servedBy(p)
		}(c)
	}
	wg.Wait()
	return firstErr
}
