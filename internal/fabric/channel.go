package fabric

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"socialchain/internal/consensus"
	"socialchain/internal/obs"
	"socialchain/internal/ordering"
	"socialchain/internal/peer"
	"socialchain/internal/storage"
)

// Channel is the network's one channel: its peer set, BFT consensus
// group, ordering services, endorsement watchdog and — per peer — world
// state, history, indexes and block log, over the network's identities,
// endorsement policy and (stateless) chaincode registry.
type Channel struct {
	net  *Network
	name string

	peers      []*peer.Peer
	endorsers  []*localEndorser
	validators []*consensus.Validator
	orderers   []*ordering.Service
	watchdog   *Watchdog

	mu        sync.RWMutex
	excluded  map[string]bool
	rr        atomic.Uint64
	commitErr atomic.Uint64
}

// newChannel builds (but does not start) the network's channel. A durable
// network keeps peer i under DataDir/peer<i>.
func newChannel(n *Network) (*Channel, error) {
	cfg := n.cfg
	name, dataDir := cfg.ChannelID, cfg.DataDir
	ch := &Channel{
		net:      n,
		name:     name,
		watchdog: NewWatchdog(cfg.WatchdogThreshold),
		excluded: make(map[string]bool),
	}
	// Flagged endorsers are removed from the endorser pool.
	ch.watchdog.OnFlag(func(id string) {
		ch.mu.Lock()
		ch.excluded[id] = true
		ch.mu.Unlock()
	})

	for i := 0; i < cfg.NumPeers; i++ {
		peerDir := ""
		if dataDir != "" {
			peerDir = filepath.Join(dataDir, n.ids[i])
		}
		p, err := peer.New(peer.Config{
			ID:         n.ids[i],
			ChannelID:  name,
			Signer:     n.signers[i],
			Registry:   n.registry,
			Policy:     n.policy,
			Identities: n.members,
			State:      storage.Config{Engine: cfg.StateEngine, Durability: cfg.StateDurability},
			DataDir:    peerDir,
			Indexes:    cfg.StateIndexes,
			Obs:        cfg.Obs.With(obs.L("channel", name), obs.L("peer", n.ids[i])),
			SlowTraces: cfg.SlowTraces,
		})
		if err != nil {
			ch.closePeers()
			return nil, err
		}
		ch.peers = append(ch.peers, p)
	}
	if dataDir != "" {
		// Recovered peers whose block log missed the tail (killed before
		// the last blocks were logged) catch up from the freshest peer now,
		// so consensus starts from one height everywhere.
		if err := ch.syncRecoveredPeers(); err != nil {
			ch.closePeers()
			return nil, err
		}
	}

	for i := 0; i < cfg.NumPeers; i++ {
		p := ch.peers[i]
		v := consensus.NewValidator(consensus.Config{
			ID:             n.ids[i],
			Validators:     n.ids,
			Signer:         n.signers[i],
			Identities:     n.idents,
			Sender:         consensus.NewBus(n.endpoints[i], name),
			Clock:          cfg.Clock,
			RequestTimeout: cfg.ConsensusTimeout,
			Behavior:       cfg.Behaviors[i],
			Obs:            cfg.Obs.With(obs.L("channel", name), obs.L("peer", n.ids[i])),
			Deliver: func(seq uint64, payload []byte) {
				batch, err := ordering.DecodeBatch(payload)
				if err != nil {
					ch.commitErr.Add(1)
					return
				}
				if _, err := p.CommitBatch(batch.Txs); err != nil {
					ch.commitErr.Add(1)
				}
			},
		})
		ch.validators = append(ch.validators, v)
		o := ordering.NewService(cfg.Cutter, v, cfg.Clock)
		o.Observe(cfg.Obs.With(obs.L("channel", name), obs.L("peer", n.ids[i])))
		ch.orderers = append(ch.orderers, o)
		ch.endorsers = append(ch.endorsers, &localEndorser{p: p, o: o})
	}
	return ch, nil
}

// start launches the channel's validators and ordering services.
func (ch *Channel) start() {
	for _, v := range ch.validators {
		v.Start()
	}
	for _, o := range ch.orderers {
		o.Start()
	}
}

// stop shuts the channel's ordering and consensus down (peers' durable
// stores stay open — see closePeers).
func (ch *Channel) stop() {
	for _, o := range ch.orderers {
		o.Stop()
	}
	for _, v := range ch.validators {
		v.Stop()
	}
}

// closePeers closes every constructed peer, returning the first error.
func (ch *Channel) closePeers() error {
	var first error
	for _, p := range ch.peers {
		if err := p.Close(); first == nil {
			first = err
		}
	}
	return first
}

// syncRecoveredPeers brings every peer up to the freshest recovered
// height through the validating SyncFrom path.
func (ch *Channel) syncRecoveredPeers() error {
	var freshest *peer.Peer
	for _, p := range ch.peers {
		if freshest == nil || p.Ledger().Height() > freshest.Ledger().Height() {
			freshest = p
		}
	}
	for _, p := range ch.peers {
		if p == freshest || p.Ledger().Height() >= freshest.Ledger().Height() {
			continue
		}
		if _, err := p.SyncFrom(freshest); err != nil {
			return fmt.Errorf("fabric: recovery sync %s from %s: %w", p.ID(), freshest.ID(), err)
		}
	}
	return nil
}

// Name returns the channel name.
func (ch *Channel) Name() string { return ch.name }

// Network returns the network this channel belongs to.
func (ch *Channel) Network() *Network { return ch.net }

// Peer returns the channel's i-th peer.
func (ch *Channel) Peer(i int) *peer.Peer { return ch.peers[i] }

// Peers returns all of the channel's peers.
func (ch *Channel) Peers() []*peer.Peer { return ch.peers }

// NumPeers returns the channel's peer count.
func (ch *Channel) NumPeers() int { return len(ch.peers) }

// Validator returns the channel's i-th consensus validator (tests, stats).
func (ch *Channel) Validator(i int) *consensus.Validator { return ch.validators[i] }

// Watchdog returns the channel's misbehaviour tracker.
func (ch *Channel) Watchdog() *Watchdog { return ch.watchdog }

// CommitErrors returns the number of batches that failed to commit.
func (ch *Channel) CommitErrors() uint64 { return ch.commitErr.Load() }

// ActiveEndorsers returns the channel's peers not excluded by its
// watchdog.
func (ch *Channel) ActiveEndorsers() []*peer.Peer {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	out := make([]*peer.Peer, 0, len(ch.peers))
	for _, p := range ch.peers {
		if !ch.excluded[p.ID()] {
			out = append(out, p)
		}
	}
	return out
}

// SyncPeer catches peer i up from the freshest other peer (the
// state-transfer path for peers that missed deliveries while partitioned).
// It returns the number of blocks applied.
func (ch *Channel) SyncPeer(i int) (int, error) {
	target := ch.peers[i]
	var freshest *peer.Peer
	for _, p := range ch.peers {
		if p == target {
			continue
		}
		if freshest == nil || p.Ledger().Height() > freshest.Ledger().Height() {
			freshest = p
		}
	}
	if freshest == nil || freshest.Ledger().Height() <= target.Ledger().Height() {
		return 0, nil
	}
	return target.SyncFrom(freshest)
}

// WaitHeight blocks until every peer's ledger reaches height (or
// timeout), returning whether it was reached.
func (ch *Channel) WaitHeight(height uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, p := range ch.peers {
			if p.Ledger().Height() < height {
				all = false
				break
			}
		}
		if all {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}
