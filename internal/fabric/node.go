package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/consensus"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/ordering"
	"socialchain/internal/peer"
	"socialchain/internal/storage"
	"socialchain/internal/transport"
)

// OrdererID is the transport identity of the ordering node of a networked
// deployment.
const OrdererID = "orderer"

// DefaultSyncInterval is how often a Node's anti-entropy loop polls the
// other peers' chain heights.
const DefaultSyncInterval = 250 * time.Millisecond

// NodeConfig describes one peer process of a networked deployment: which
// peer index this process hosts, where it listens and where the other
// processes are. Net must be the same Config in every process of the
// deployment (same seed, peer count, channel name, cutter...); that is
// what lets the processes derive identical identities without a
// coordination service.
type NodeConfig struct {
	// Index selects which peer (0-based) this process hosts.
	Index int
	// Listen is the TCP listen address for this node.
	Listen string
	// Peers maps the other processes' transport IDs ("peer0".., OrdererID)
	// to their dial addresses. Entries may be missing: peers that dial in
	// are adopted dynamically.
	Peers map[string]string
	// Net is the deployment-wide network config. IdentitySeed must be set.
	Net Config
	// SyncInterval overrides the anti-entropy poll period (default
	// DefaultSyncInterval).
	SyncInterval time.Duration
}

// Node is one out-of-process peer: it hosts this peer's world state, block
// log and consensus validator on the deployment's channel, and serves the
// endorsement/commit/block-fetch RPC methods that remote gateways and
// lagging peers call. Consensus traffic rides the same TCP endpoint (a
// consensus.Bus). An anti-entropy loop keeps the peer converging after
// partitions or restarts: whenever another peer's chain is taller, the gap
// is fetched over RPC and re-validated through the same SyncFrom path
// in-process recovery uses.
type Node struct {
	cfg      NodeConfig
	net      Config
	id       string
	t        *transport.TCP
	rpc      *transport.RPC
	registry *chaincode.Registry
	policy   msp.Policy
	peerSet

	p         *peer.Peer
	v         *consensus.Validator
	dataDir   string // the peer's durable directory ("" in-memory)
	commitErr atomic.Uint64

	// Observability: every node carries a registry, health aggregator and
	// slow-trace ring; the admin HTTP surface over them binds only when
	// ServeAdmin is called.
	obsReg *obs.Registry
	health *obs.Health
	traces *obs.TraceRing
	admin  *obs.AdminServer

	done chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	started bool
	closed  bool
}

// NewNode builds (but does not start) one peer process.
func NewNode(cfg NodeConfig) (*Node, error) {
	net := cfg.Net
	net.fill()
	if err := net.checkChannels(); err != nil {
		return nil, err
	}
	if net.IdentitySeed == "" {
		return nil, errors.New("fabric: NodeConfig.Net.IdentitySeed must be set so every process derives the same identities")
	}
	if cfg.Index < 0 || cfg.Index >= net.NumPeers {
		return nil, fmt.Errorf("fabric: node index %d out of range (NumPeers %d)", cfg.Index, net.NumPeers)
	}
	if err := refuseChannelDirs(net.DataDir, net.ChannelID); err != nil {
		return nil, err
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = DefaultSyncInterval
	}

	n := &Node{
		cfg:      cfg,
		net:      net,
		registry: chaincode.NewRegistry(),
		done:     make(chan struct{}),
		obsReg:   obs.NewRegistry(),
		health:   obs.NewHealth(0, nil),
		traces:   obs.NewTraceRing(128, 0),
	}
	n.policy = net.Policy
	if n.policy == nil {
		n.policy = msp.TwoThirds(net.NumPeers)
	}

	var err error
	if n.peerSet, err = newPeerSet(&net); err != nil {
		return nil, err
	}
	n.id = n.ids[cfg.Index]

	tr, err := transport.NewTCP(transport.TCPConfig{
		ID:          n.id,
		Cluster:     net.ChannelID,
		Listen:      cfg.Listen,
		Peers:       cfg.Peers,
		QueueLen:    net.SendQueue,
		DialTimeout: net.DialTimeout,
		BackoffBase: net.DialBackoffBase,
		BackoffMax:  net.DialBackoffMax,
	})
	if err != nil {
		return nil, err
	}
	n.t = tr
	n.rpc = transport.NewRPC(tr)
	tr.Counters().Register(n.obsReg)

	if err := n.openPeer(); err != nil {
		tr.Close()
		return nil, fmt.Errorf("fabric: node channel %s: %w", net.ChannelID, err)
	}
	n.registerHandlers()
	return n, nil
}

// openPeer opens this process's peer (under DataDir/peer<i> when durable)
// and builds its consensus validator.
func (n *Node) openPeer() error {
	net := &n.net
	if net.DataDir != "" {
		n.dataDir = filepath.Join(net.DataDir, n.id)
	}
	chReg := n.obsReg.With(obs.L("channel", net.ChannelID))
	p, err := peer.New(peer.Config{
		ID:         n.id,
		ChannelID:  net.ChannelID,
		Signer:     n.signers[n.cfg.Index],
		Registry:   n.registry,
		Policy:     n.policy,
		Identities: n.members,
		State:      storage.Config{Engine: net.StateEngine, Durability: net.StateDurability},
		DataDir:    n.dataDir,
		Indexes:    net.StateIndexes,
		Obs:        chReg,
		SlowTraces: n.traces,
	})
	if err != nil {
		return err
	}
	n.p = p
	n.v = consensus.NewValidator(consensus.Config{
		ID:             n.id,
		Validators:     n.ids,
		Signer:         n.signers[n.cfg.Index],
		Identities:     n.idents,
		Sender:         consensus.NewBus(n.t, net.ChannelID),
		Clock:          net.Clock,
		RequestTimeout: net.ConsensusTimeout,
		Obs:            chReg,
		Deliver: func(seq uint64, payload []byte) {
			batch, err := ordering.DecodeBatch(payload)
			if err != nil {
				n.commitErr.Add(1)
				return
			}
			if _, err := p.CommitBatch(batch.Txs); err != nil {
				// A restarted or lagging peer misses the heights these
				// batches execute at; the anti-entropy loop closes the gap.
				n.commitErr.Add(1)
			}
		},
	})
	n.health.Register(net.ChannelID, obs.Probe{
		Height:   p.Height,
		Backlog:  n.v.Backlog,
		Peers:    n.t.ConnectedPeers,
		MinPeers: 1,
	})
	return nil
}

// Deploy registers a chaincode on this node. Every process of a
// deployment must deploy the same chaincodes.
func (n *Node) Deploy(cc chaincode.Chaincode) error { return n.registry.Register(cc) }

// MustDeploy registers a chaincode, panicking on duplicates.
func (n *Node) MustDeploy(cc chaincode.Chaincode) {
	if err := n.Deploy(cc); err != nil {
		panic(err)
	}
}

// ID returns the node's transport identity ("peer<Index>").
func (n *Node) ID() string { return n.id }

// Addr returns the node's bound listen address.
func (n *Node) Addr() string { return n.t.Addr() }

// Transport returns the node's TCP endpoint (metrics, tests).
func (n *Node) Transport() *transport.TCP { return n.t }

// Peer returns this node's peer.
func (n *Node) Peer() *peer.Peer { return n.p }

// CommitErrors counts failed batch commits (restart gaps closed by sync
// show up here).
func (n *Node) CommitErrors() uint64 { return n.commitErr.Load() }

// Start launches the node's validators and its anti-entropy loop.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return
	}
	n.started = true
	n.v.Start()
	n.wg.Add(1)
	go n.syncLoop()
}

// Close stops consensus, the sync loop and the transport, and closes the
// peer's durable stores.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	started := n.started
	n.mu.Unlock()
	n.admin.Close()
	close(n.done)
	n.wg.Wait()
	if started {
		n.v.Stop()
	}
	err := n.p.Close()
	n.t.Close()
	return err
}

// syncLoop is the anti-entropy catch-up: whenever another peer's chain is
// taller, the missing blocks are fetched over RPC and re-validated through
// the same SyncFrom path in-process recovery uses.
func (n *Node) syncLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
		}
		n.catchUp()
	}
}

// catchUp syncs this peer from the tallest other peer, if any is ahead.
func (n *Node) catchUp() {
	bestID, bestHeight := "", n.p.Height()
	for _, id := range n.ids {
		if id == n.id {
			continue
		}
		var h heightResp
		if err := n.rpc.CallJSON(id, methodHeight, channelReq{Channel: n.net.ChannelID}, &h, 2*time.Second); err != nil {
			continue
		}
		if h.Height > bestHeight {
			bestID, bestHeight = id, h.Height
		}
	}
	if bestID == "" {
		return
	}
	src := &remoteBlockSource{rpc: n.rpc, peer: bestID, channel: n.net.ChannelID, height: bestHeight}
	// A torn fetch or a concurrent live commit aborts this round; the next
	// tick retries from the new local height.
	_, _ = n.p.SyncFrom(src)
}

// remoteBlockSource adapts another process's blocks RPC to peer.BlockSource:
// one RPC, one page (at most maxSyncBlocks, fewer when the serving ledger
// ends the page early by size).
type remoteBlockSource struct {
	rpc     *transport.RPC
	peer    string
	channel string
	height  uint64
}

func (s *remoteBlockSource) Height() uint64 { return s.height }

func (s *remoteBlockSource) BlocksFrom(from uint64) ([]*ledger.Block, error) {
	req, err := json.Marshal(blocksReq{Channel: s.channel, From: from, Max: maxSyncBlocks})
	if err != nil {
		return nil, err
	}
	out, err := s.rpc.Call(s.peer, methodBlocks, req, 10*time.Second)
	if err != nil {
		return nil, err
	}
	resp, err := decodeBlocksResp(out)
	return resp.Blocks, err
}

// registerHandlers wires the node's RPC surface.
func (n *Node) registerHandlers() {
	n.rpc.Handle(methodEndorse, n.handleEndorse)
	n.rpc.Handle(methodEndorseBatch, n.handleEndorseBatch)
	n.rpc.Handle(methodWaitCommit, n.handleWaitCommit)
	n.rpc.Handle(methodHeight, n.handleHeight)
	n.rpc.Handle(methodBlocks, n.handleBlocks)
	n.rpc.Handle(methodVerifyChain, n.handleVerifyChain)
	n.rpc.Handle(methodPropose, n.handlePropose)
}

// checkChannel answers a request naming another channel with the
// nochannel code.
func (n *Node) checkChannel(name string) error {
	if name != n.net.ChannelID {
		return &transport.CodedError{Code: "nochannel", Msg: fmt.Sprintf("fabric: node %s hosts no channel %q", n.id, name)}
	}
	return nil
}

func (n *Node) handleEndorse(from string, req []byte) ([]byte, error) {
	var r endorseReq
	if err := json.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	resp, err := n.p.Endorse(r.Proposal)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

func (n *Node) handleEndorseBatch(from string, req []byte) ([]byte, error) {
	var r endorseBatchReq
	if err := json.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	resp, err := n.p.EndorseBatch(r.Proposal)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// handleWaitCommit blocks until the transaction commits on this peer (or
// the timeout passes). The waiter is registered first and the ledger
// checked second, so a commit that lands between a client's submit and its
// waitcommit call is never missed.
func (n *Node) handleWaitCommit(from string, req []byte) ([]byte, error) {
	var r waitCommitReq
	if err := json.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	waiter := n.p.WaitForCommit(r.TxID)
	if blockNum, _, flag, ok := n.p.Ledger().TxLocation(r.TxID); ok {
		n.p.CancelWait(r.TxID)
		return json.Marshal(waitCommitResp{Flag: flag, BlockNum: blockNum})
	}
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = n.net.CommitTimeout
	}
	select {
	case flag := <-waiter:
		resp := waitCommitResp{Flag: flag}
		resp.BlockNum, _, _, _ = n.p.Ledger().TxLocation(r.TxID)
		return json.Marshal(resp)
	case <-time.After(timeout):
		n.p.CancelWait(r.TxID)
		return nil, &transport.CodedError{Code: codeCommitTimeout, Msg: fmt.Sprintf("fabric: commit timeout: tx %s", r.TxID)}
	case <-n.done:
		n.p.CancelWait(r.TxID)
		return nil, &transport.CodedError{Code: codeStopped, Msg: "fabric: node shutting down"}
	}
}

func (n *Node) handleHeight(from string, req []byte) ([]byte, error) {
	var r channelReq
	if err := json.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	return json.Marshal(heightResp{Height: n.p.Height()})
}

func (n *Node) handleBlocks(from string, req []byte) ([]byte, error) {
	var r blocksReq
	if err := json.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	max := r.Max
	if max <= 0 || max > maxSyncBlocks {
		max = maxSyncBlocks
	}
	blocks, err := n.p.Ledger().BlocksFrom(r.From, max)
	if err != nil {
		return nil, err
	}
	return blocksResp{Blocks: blocks}.encode(), nil
}

func (n *Node) handleVerifyChain(from string, req []byte) ([]byte, error) {
	var r channelReq
	if err := json.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	if err := n.p.Ledger().VerifyChain(); err != nil {
		return nil, err
	}
	return json.Marshal(heightResp{Height: n.p.Height()})
}

// handlePropose feeds an ordering batch into this node's validator; the
// ordering node broadcasts each batch to every validator, and consensus
// deduplicates by digest.
func (n *Node) handlePropose(from string, req []byte) ([]byte, error) {
	r, err := decodeProposeReq(req)
	if err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	n.v.Propose(r.Payload)
	return json.Marshal(emptyResp{})
}
