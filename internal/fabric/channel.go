package fabric

import (
	"sync"
	"sync/atomic"
	"time"

	"socialchain/internal/consensus"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/peer"
)

// Channel is the network's one channel as its gateways see it: the
// gateway backend over the network's nodes (endorsement watchdog and
// exclusion, the round-robin entry pick, the simulated client hop) and
// accessors onto the nodes' peers and validators. It builds nothing; the
// nodes own every component.
type Channel struct {
	net   *Network
	name  string
	nodes []*Node

	watchdog *Watchdog
	mu       sync.RWMutex
	excluded map[string]bool
	rr       atomic.Uint64
	tip      heightMark
	sigs     msp.Verifier // the gateways' admit checks
}

// newChannel puts the gateway backend over the network's nodes.
func newChannel(n *Network) *Channel {
	ch := &Channel{
		net:      n,
		name:     n.cfg.ChannelID,
		nodes:    n.nodes,
		watchdog: NewWatchdog(n.cfg.WatchdogThreshold),
		excluded: make(map[string]bool),
	}
	ch.sigs.Register(ch.obsReg().With(obs.L("component", "gateway")))
	// Flagged endorsers are removed from the endorser pool.
	ch.watchdog.OnFlag(func(id string) {
		ch.mu.Lock()
		ch.excluded[id] = true
		ch.mu.Unlock()
	})
	return ch
}

// Name returns the channel name.
func (ch *Channel) Name() string { return ch.name }

// Network returns the network this channel belongs to.
func (ch *Channel) Network() *Network { return ch.net }

// Peer returns the channel's i-th peer.
func (ch *Channel) Peer(i int) *peer.Peer { return ch.nodes[i].p }

// Peers returns all of the channel's peers.
func (ch *Channel) Peers() []*peer.Peer {
	out := make([]*peer.Peer, len(ch.nodes))
	for i, n := range ch.nodes {
		out[i] = n.p
	}
	return out
}

// NumPeers returns the channel's peer count.
func (ch *Channel) NumPeers() int { return len(ch.nodes) }

// Validator returns the channel's i-th consensus validator (tests, stats).
func (ch *Channel) Validator(i int) *consensus.Validator { return ch.nodes[i].v }

// Watchdog returns the channel's misbehaviour tracker.
func (ch *Channel) Watchdog() *Watchdog { return ch.watchdog }

// CommitErrors returns the number of batches that failed to commit.
func (ch *Channel) CommitErrors() uint64 {
	var sum uint64
	for _, n := range ch.nodes {
		sum += n.CommitErrors()
	}
	return sum
}

// ActiveEndorsers returns the channel's peers not excluded by its
// watchdog.
func (ch *Channel) ActiveEndorsers() []*peer.Peer {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	out := make([]*peer.Peer, 0, len(ch.nodes))
	for _, n := range ch.nodes {
		if !ch.excluded[n.id] {
			out = append(out, n.p)
		}
	}
	return out
}

// SyncPeer runs node i's catch-up: the state-transfer path for a peer that
// missed deliveries while partitioned, from the tallest other peer. It
// returns the number of blocks applied.
func (ch *Channel) SyncPeer(i int) (int, error) { return ch.nodes[i].catchUp() }

// WaitHeight blocks until every peer's ledger reaches height (or
// timeout), returning whether it was reached. It waits on each peer's
// commit notification.
func (ch *Channel) WaitHeight(height uint64, timeout time.Duration) bool {
	deadline := ch.net.cfg.Clock.After(timeout)
	for _, n := range ch.nodes {
		if !waitHeight(n.p, height, deadline, nil) {
			return false
		}
	}
	return true
}
