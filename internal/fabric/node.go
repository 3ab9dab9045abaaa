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
// deployment (same seed, peer count, channels, cutter...); that is what
// lets the processes derive identical identities and channel layouts
// without a coordination service.
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

// nodeChannel is one channel's slice of a peer process: the peer and its
// consensus validator.
type nodeChannel struct {
	p         *peer.Peer
	v         *consensus.Validator
	dataDir   string // this peer's durable root on the channel ("" in-memory)
	commitErr atomic.Uint64
}

// Node is one out-of-process peer: it hosts, for every channel of the
// deployment, this peer's world state, block log and consensus validator,
// and serves the endorsement/commit/block-fetch RPC methods that remote
// gateways and lagging peers call. Consensus traffic rides the same TCP
// endpoint (one consensus.Bus per channel). An anti-entropy loop keeps the
// peer converging after partitions or restarts: whenever another peer's
// chain is taller, the gap is fetched over RPC and re-validated through
// the same SyncFrom path in-process recovery uses.
type Node struct {
	cfg      NodeConfig
	net      Config
	id       string
	t        *transport.TCP
	rpc      *transport.RPC
	registry *chaincode.Registry
	policy   msp.Policy
	peerSet
	channels map[string]*nodeChannel
	order    []string

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
	if net.IdentitySeed == "" {
		return nil, errors.New("fabric: NodeConfig.Net.IdentitySeed must be set so every process derives the same identities")
	}
	if cfg.Index < 0 || cfg.Index >= net.NumPeers {
		return nil, fmt.Errorf("fabric: node index %d out of range (NumPeers %d)", cfg.Index, net.NumPeers)
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = DefaultSyncInterval
	}

	n := &Node{
		cfg:      cfg,
		net:      net,
		registry: chaincode.NewRegistry(),
		channels: make(map[string]*nodeChannel, net.NumChannels),
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

	for i := 0; i < net.NumChannels; i++ {
		name := net.channelName(i)
		nc, err := n.buildChannel(name, net.channelDataDir(i))
		if err != nil {
			n.closeChannels()
			tr.Close()
			return nil, fmt.Errorf("fabric: node channel %s: %w", name, err)
		}
		n.channels[name] = nc
		n.order = append(n.order, name)
	}

	n.registerHandlers()
	return n, nil
}

// buildChannel constructs this peer's slice of one channel.
func (n *Node) buildChannel(name, dataDir string) (*nodeChannel, error) {
	net := &n.net
	peerDir := ""
	if dataDir != "" {
		peerDir = channelPeerDir(dataDir, n.id)
	}
	chReg := n.obsReg.With(obs.L("channel", name))
	p, err := peer.New(peer.Config{
		ID:         n.id,
		ChannelID:  name,
		Signer:     n.signers[n.cfg.Index],
		Registry:   n.registry,
		Policy:     n.policy,
		Identities: n.members,
		State:      storage.Config{Engine: net.StateEngine, Durability: net.StateDurability},
		DataDir:    peerDir,
		Indexes:    net.StateIndexes,
		Obs:        chReg,
		SlowTraces: n.traces,
	})
	if err != nil {
		return nil, err
	}
	nc := &nodeChannel{p: p, dataDir: peerDir}
	nc.v = consensus.NewValidator(consensus.Config{
		ID:             n.id,
		Validators:     n.ids,
		Signer:         n.signers[n.cfg.Index],
		Identities:     n.idents,
		Sender:         consensus.NewBus(n.t, name),
		Clock:          net.Clock,
		RequestTimeout: net.ConsensusTimeout,
		Obs:            chReg,
		Deliver: func(seq uint64, payload []byte) {
			batch, err := ordering.DecodeBatch(payload)
			if err != nil {
				nc.commitErr.Add(1)
				return
			}
			if _, err := p.CommitBatch(batch.Txs); err != nil {
				// A restarted or lagging peer misses the heights these
				// batches execute at; the anti-entropy loop closes the gap.
				nc.commitErr.Add(1)
			}
		},
	})
	n.health.Register(name, obs.Probe{
		Height:   p.Height,
		Backlog:  nc.v.Backlog,
		Peers:    n.t.ConnectedPeers,
		MinPeers: 1,
	})
	return nc, nil
}

// Deploy registers a chaincode on this node (all channels). Every process
// of a deployment must deploy the same chaincodes.
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

// Peer returns this node's peer on the named channel (nil if unknown).
func (n *Node) Peer(channel string) *peer.Peer {
	if nc := n.channels[channel]; nc != nil {
		return nc.p
	}
	return nil
}

// CommitErrors sums failed batch commits across channels (restart gaps
// closed by sync show up here).
func (n *Node) CommitErrors() uint64 {
	var total uint64
	for _, nc := range n.channels {
		total += nc.commitErr.Load()
	}
	return total
}

// Start launches the node's validators and its anti-entropy loop.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return
	}
	n.started = true
	for _, name := range n.order {
		n.channels[name].v.Start()
	}
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
		for _, name := range n.order {
			n.channels[name].v.Stop()
		}
	}
	err := n.closeChannels()
	n.t.Close()
	return err
}

func (n *Node) closeChannels() error {
	var first error
	for _, name := range n.order {
		if nc := n.channels[name]; nc != nil {
			if err := nc.p.Close(); first == nil {
				first = err
			}
		}
	}
	return first
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
		for _, name := range n.order {
			select {
			case <-n.done:
				return
			default:
			}
			n.syncChannel(name, n.channels[name])
		}
	}
}

// syncChannel catches this peer up on one channel from the tallest other
// peer, if any is ahead.
func (n *Node) syncChannel(name string, nc *nodeChannel) {
	local := nc.p.Height()
	bestID, bestHeight := "", local
	for _, id := range n.ids {
		if id == n.id {
			continue
		}
		var h heightResp
		if err := n.rpc.CallJSON(id, methodHeight, channelReq{Channel: name}, &h, 2*time.Second); err != nil {
			continue
		}
		if h.Height > bestHeight {
			bestID, bestHeight = id, h.Height
		}
	}
	if bestID == "" {
		return
	}
	src := &remoteBlockSource{rpc: n.rpc, peer: bestID, channel: name, height: bestHeight}
	if _, err := nc.p.SyncFrom(src); err != nil {
		// A torn fetch or a concurrent live commit aborts this round; the
		// next tick retries from the new local height.
		return
	}
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

// channelPeerDir is where one peer's durable stores live under a channel's
// data root (matches the in-process layout, so a directory written by an
// in-process network recovers under a Node and vice versa).
func channelPeerDir(dataDir, peerID string) string {
	return filepath.Join(dataDir, peerID)
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

// channel resolves a request's channel or returns a coded error.
func (n *Node) channel(name string) (*nodeChannel, error) {
	if nc := n.channels[name]; nc != nil {
		return nc, nil
	}
	return nil, &transport.CodedError{Code: "nochannel", Msg: fmt.Sprintf("fabric: node %s hosts no channel %q", n.id, name)}
}

func (n *Node) handleEndorse(from string, req []byte) ([]byte, error) {
	var r endorseReq
	if err := json.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	nc, err := n.channel(r.Channel)
	if err != nil {
		return nil, err
	}
	resp, err := nc.p.Endorse(r.Proposal)
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
	nc, err := n.channel(r.Channel)
	if err != nil {
		return nil, err
	}
	resp, err := nc.p.EndorseBatch(r.Proposal)
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
	nc, err := n.channel(r.Channel)
	if err != nil {
		return nil, err
	}
	waiter := nc.p.WaitForCommit(r.TxID)
	if blockNum, _, flag, ok := nc.p.Ledger().TxLocation(r.TxID); ok {
		nc.p.CancelWait(r.TxID)
		return json.Marshal(waitCommitResp{Flag: flag, BlockNum: blockNum})
	}
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = n.net.CommitTimeout
	}
	select {
	case flag := <-waiter:
		resp := waitCommitResp{Flag: flag}
		resp.BlockNum, _, _, _ = nc.p.Ledger().TxLocation(r.TxID)
		return json.Marshal(resp)
	case <-time.After(timeout):
		nc.p.CancelWait(r.TxID)
		return nil, &transport.CodedError{Code: codeCommitTimeout, Msg: fmt.Sprintf("fabric: commit timeout: tx %s", r.TxID)}
	case <-n.done:
		nc.p.CancelWait(r.TxID)
		return nil, &transport.CodedError{Code: codeStopped, Msg: "fabric: node shutting down"}
	}
}

func (n *Node) handleHeight(from string, req []byte) ([]byte, error) {
	var r channelReq
	if err := json.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	nc, err := n.channel(r.Channel)
	if err != nil {
		return nil, err
	}
	return json.Marshal(heightResp{Height: nc.p.Height()})
}

func (n *Node) handleBlocks(from string, req []byte) ([]byte, error) {
	var r blocksReq
	if err := json.Unmarshal(req, &r); err != nil {
		return nil, err
	}
	nc, err := n.channel(r.Channel)
	if err != nil {
		return nil, err
	}
	max := r.Max
	if max <= 0 || max > maxSyncBlocks {
		max = maxSyncBlocks
	}
	blocks, err := nc.p.Ledger().BlocksFrom(r.From, max)
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
	nc, err := n.channel(r.Channel)
	if err != nil {
		return nil, err
	}
	if err := nc.p.Ledger().VerifyChain(); err != nil {
		return nil, err
	}
	return json.Marshal(heightResp{Height: nc.p.Height()})
}

// handlePropose feeds an ordering batch into this node's validator; the
// ordering node broadcasts each batch to every validator, and consensus
// deduplicates by digest.
func (n *Node) handlePropose(from string, req []byte) ([]byte, error) {
	r, err := decodeProposeReq(req)
	if err != nil {
		return nil, err
	}
	nc, err := n.channel(r.Channel)
	if err != nil {
		return nil, err
	}
	nc.v.Propose(r.Payload)
	return json.Marshal(emptyResp{})
}
