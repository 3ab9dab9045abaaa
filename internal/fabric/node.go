package fabric

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/consensus"
	"socialchain/internal/ledger"
	"socialchain/internal/obs"
	"socialchain/internal/ordering"
	"socialchain/internal/peer"
	"socialchain/internal/storage"
	"socialchain/internal/transport"
)

// syncInterval is how often a Node's anti-entropy loop polls the other
// peers' chain heights.
const syncInterval = 250 * time.Millisecond

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
	// Peers maps the other processes' transport IDs ("peer0"...) to their
	// dial addresses. Entries may be missing: peers that dial in are
	// adopted dynamically.
	Peers map[string]string
	// Net is the deployment-wide network config. IdentitySeed must be set.
	Net Config
}

// Node is one peer of the deployment, the one assembly both deployments
// are built from: a multi-process deployment runs one per process
// (NewNode), an in-process Network runs N over one medium. It hosts the
// peer's world state and block log, its consensus validator and an
// ordering service that cuts the batches it proposes to that validator —
// consensus relays each request to every replica, so any node accepts
// submissions. On its transport endpoint it serves the endorse, submit,
// commit-wait and block-fetch RPCs that remote gateways and lagging peers
// call, beside the consensus.Bus. An anti-entropy loop keeps the peer
// converging after partitions or restarts: whenever another peer's chain is
// taller, the gap is fetched over RPC and re-validated through SyncFrom.
type Node struct {
	net      Config
	ps       *peerSet
	id       string
	t        transport.Transport
	rpc      *transport.RPC
	registry *chaincode.Registry

	p         *peer.Peer
	v         *consensus.Validator
	o         *ordering.Service
	commitErr atomic.Uint64
	// catchingUp is set while the peer is out of live delivery: a decided
	// batch failed to commit here, or the anti-entropy loop had to copy
	// blocks from another node. The next batch that commits live clears
	// it. See reach.
	catchingUp atomic.Bool

	// admin is the surface ServeAdmin binds, nil until then. It is held
	// as an interface so that binaries whose nodes never serve one (every
	// in-process network) do not link the HTTP server.
	admin interface {
		Addr() string
		Close() error
	}

	done chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	started bool
	stopped bool
	closed  bool
}

// NewNode builds (but does not start) one peer process: it opens the
// node's TCP endpoint and assembles the node over it. The node's metrics
// go to Net.Obs and its slow traces to Net.SlowTraces, each created when
// nil; ServeAdmin exposes both.
func NewNode(cfg NodeConfig) (*Node, error) {
	net := cfg.Net
	if err := net.prepare(true); err != nil {
		return nil, err
	}
	if cfg.Index < 0 || cfg.Index >= net.NumPeers {
		return nil, fmt.Errorf("fabric: node index %d out of range (NumPeers %d)", cfg.Index, net.NumPeers)
	}
	if net.Obs == nil {
		net.Obs = obs.NewRegistry()
	}
	if net.SlowTraces == nil {
		net.SlowTraces = obs.NewTraceRing(128, 0)
	}
	ps, err := newPeerSet(&net)
	if err != nil {
		return nil, err
	}
	tr, err := net.newTCP(ps.ids[cfg.Index], cfg.Listen, cfg.Peers)
	if err != nil {
		return nil, err
	}
	n, err := newNode(net, ps, cfg.Index, tr)
	if err != nil {
		tr.Close()
		return nil, fmt.Errorf("fabric: node channel %s: %w", net.ChannelID, err)
	}
	return n, nil
}

// newNode assembles peer i of the deployment cfg (filled) over an open
// endpoint t: the peer (under DataDir/peer<i> when durable), its validator
// on a consensus.Bus over t, its ordering service and its RPC surface. The
// node closes t; on error the caller still owns it. Its metrics carry the
// channel and peer labels.
func newNode(cfg Config, ps *peerSet, i int, t transport.Transport) (*Node, error) {
	n := &Node{
		net:      cfg,
		ps:       ps,
		id:       ps.ids[i],
		t:        t,
		rpc:      transport.NewRPC(t),
		registry: chaincode.NewRegistry(),
		done:     make(chan struct{}),
	}
	var dataDir string
	if cfg.DataDir != "" {
		dataDir = filepath.Join(cfg.DataDir, n.id)
	}
	peerReg := cfg.Obs.With(obs.L("peer", n.id))
	reg := peerReg.With(obs.L("channel", cfg.ChannelID))
	p, err := peer.New(peer.Config{
		ID:         n.id,
		ChannelID:  cfg.ChannelID,
		Signer:     ps.signers[i],
		Registry:   n.registry,
		Policy:     cfg.Policy,
		Identities: ps.members,
		State:      storage.Config{Engine: cfg.StateEngine, Durability: cfg.StateDurability},
		DataDir:    dataDir,
		Indexes:    cfg.StateIndexes,
		Obs:        reg,
		SlowTraces: cfg.SlowTraces,
	})
	if err != nil {
		return nil, err
	}
	n.p = p
	n.v = consensus.NewValidator(consensus.Config{
		ID:             n.id,
		Validators:     ps.ids,
		Signer:         ps.signers[i],
		Identities:     ps.idents,
		Sender:         consensus.NewBus(t, cfg.ChannelID),
		Clock:          cfg.Clock,
		RequestTimeout: cfg.ConsensusTimeout,
		Behavior:       cfg.Behaviors[i],
		Obs:            reg,
		Deliver:        n.deliver,
	})
	n.o = ordering.NewService(cfg.Cutter, n.v, cfg.Clock)
	n.o.Observe(reg)
	transport.Register(t, peerReg)
	n.registerHandlers()
	return n, nil
}

// deliver commits one decided batch.
func (n *Node) deliver(_ uint64, payload []byte) {
	batch, err := ordering.DecodeBatch(payload)
	if err == nil {
		_, err = n.p.CommitBatch(batch.Txs)
	}
	if err != nil {
		// A restarted or lagging peer misses the heights these batches
		// execute at; the anti-entropy loop closes the gap.
		n.commitErr.Add(1)
	}
	n.catchingUp.Store(err != nil)
}

// Deploy registers a chaincode on this node. Every node of a deployment
// must deploy the same chaincodes.
func (n *Node) Deploy(cc chaincode.Chaincode) error { return n.registry.Register(cc) }

// MustDeploy registers a chaincode, panicking on duplicates.
func (n *Node) MustDeploy(cc chaincode.Chaincode) {
	if err := n.Deploy(cc); err != nil {
		panic(err)
	}
}

// ID returns the node's transport identity ("peer<Index>").
func (n *Node) ID() string { return n.id }

// Addr returns the node's bound TCP listen address ("" over an in-process
// medium).
func (n *Node) Addr() string {
	if tr := n.Transport(); tr != nil {
		return tr.Addr()
	}
	return ""
}

// Transport returns the node's TCP endpoint (metrics, tests), or nil over an
// in-process medium.
func (n *Node) Transport() *transport.TCP {
	tr, _ := n.t.(*transport.TCP)
	return tr
}

// Peer returns this node's peer.
func (n *Node) Peer() *peer.Peer { return n.p }

// CommitErrors counts failed batch commits (restart gaps closed by sync
// show up here).
func (n *Node) CommitErrors() uint64 { return n.commitErr.Load() }

// Start launches the node's validator, ordering service and anti-entropy
// loop, which keeps a peer process converging after partitions and
// restarts.
func (n *Node) Start() { n.start(true) }

// start launches the validator and ordering service and, with
// antiEntropy, the catch-up loop.
func (n *Node) start(antiEntropy bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started || n.stopped {
		return
	}
	n.started = true
	n.v.Start()
	n.o.Start()
	if antiEntropy {
		n.wg.Add(1)
		go n.syncLoop()
	}
}

// stop halts the anti-entropy loop, ordering and consensus, and fails
// pending commit waits; the peer's stores stay open. A stopped node does
// not start again.
func (n *Node) stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	started := n.started
	n.mu.Unlock()
	close(n.done)
	n.wg.Wait()
	if started {
		n.o.Stop()
		n.v.Stop()
	}
}

// Close stops the node, its admin surface and its endpoint, and closes the
// peer's durable stores.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.stop()
	if n.admin != nil {
		n.admin.Close()
	}
	err := n.p.Close()
	n.t.Close()
	return err
}

// syncLoop runs the catch-up every syncInterval on the deployment's clock.
func (n *Node) syncLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case <-n.net.Clock.After(syncInterval):
		}
		// A torn fetch or a concurrent live commit aborts this round; the
		// next one retries from the new local height.
		_, _ = n.catchUp()
	}
}

// catchUp syncs this node's peer from the tallest other node, if one is
// ahead, and returns the number of blocks applied. Heights and blocks are
// fetched over RPC and every block is re-validated through SyncFrom.
func (n *Node) catchUp() (int, error) {
	bestID, bestHeight := "", n.p.Height()
	for _, id := range n.ps.ids {
		if id == n.id {
			continue
		}
		var h heightResp
		if err := call(n.rpc, id, methodHeight, &channelReq{Channel: n.net.ChannelID}, &h, 2*time.Second); err != nil {
			continue
		}
		if h.Height > bestHeight {
			bestID, bestHeight = id, h.Height
		}
	}
	if bestID == "" {
		return 0, nil
	}
	src := &remoteBlockSource{rpc: n.rpc, peer: bestID, channel: n.net.ChannelID, height: bestHeight}
	applied, err := n.p.SyncFrom(src)
	if applied > 0 {
		n.catchingUp.Store(true)
	}
	if err != nil {
		return applied, fmt.Errorf("fabric: catch-up %s from %s: %w", n.id, bestID, err)
	}
	return applied, nil
}

// remoteBlockSource adapts another node's blocks RPC to peer.BlockSource:
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
	var resp blocksResp
	err := call(s.rpc, s.peer, methodBlocks, &blocksReq{Channel: s.channel, From: from}, &resp, 10*time.Second)
	return resp.Blocks, err
}

// The Endorser side of a node, which an in-process gateway calls directly
// and the endorse RPC calls for a remote one.

// ErrBehind is returned by an endorser whose chain did not reach a
// proposal's MinHeight within behindWait.
var ErrBehind = errors.New("fabric: endorser behind the proposal's height")

// behindWait bounds how long an endorser waits for a proposal's MinHeight.
// A live peer is a block or so behind its fastest replica; one further
// behind is catching up, and the gateway's quorum does without it.
const behindWait = time.Second

// Endorse simulates a proposal on the peer once its chain reaches the
// proposal's MinHeight.
func (n *Node) Endorse(prop *peer.Proposal) (*peer.ProposalResponse, error) {
	if err := n.reach(prop.MinHeight); err != nil {
		return nil, err
	}
	return n.p.Endorse(prop)
}

// reach waits until the peer's chain is at least h blocks tall. It gives
// up with ErrBehind after behindWait on the deployment's clock, or at once
// when the node stops. A peer that is catching up refuses at once: the
// anti-entropy loop, not the next live commit, closes its gap, and the
// gateway does better asking a peer that has the height.
func (n *Node) reach(h uint64) error {
	if n.p.Height() >= h {
		return nil
	}
	if n.catchingUp.Load() || !waitHeight(n.p, h, n.net.Clock.After(behindWait), n.done) {
		return fmt.Errorf("%w: %s is at %d, the proposal needs %d", ErrBehind, n.id, n.p.Height(), h)
	}
	return nil
}

// waitHeight blocks on p's commit notification until its chain is at
// least h blocks tall and reports true, or reports false once timeout
// fires or done closes.
func waitHeight(p *peer.Peer, h uint64, timeout <-chan time.Time, done <-chan struct{}) bool {
	for {
		next := p.Committed()
		if p.Height() >= h {
			return true
		}
		select {
		case <-next:
		case <-timeout:
			return false
		case <-done:
			return false
		}
	}
}

// Order registers a commit waiter on the peer, then submits the envelope to
// the node's ordering service.
func (n *Node) Order(tx ledger.Transaction) (<-chan ledger.ValidationCode, error) {
	waiter := n.p.WaitForCommit(tx.ID)
	if err := n.o.Submit(tx); err != nil {
		// A rejected txID never commits; leaving the waiter registered
		// would leak wait-map entries.
		n.p.CancelWait(tx.ID)
		return nil, err
	}
	return waiter, nil
}

// TxBlock reports the block a committed transaction landed in.
func (n *Node) TxBlock(txID string) (uint64, bool) {
	blockNum, _, _, ok := n.p.Ledger().TxLocation(txID)
	return blockNum, ok
}

// registerHandlers wires the node's RPC surface.
func (n *Node) registerHandlers() {
	n.rpc.Handle(methodEndorse, n.handleEndorse)
	n.rpc.Handle(methodSubmit, n.handleSubmit)
	n.rpc.Handle(methodWaitCommit, n.handleWaitCommit)
	n.rpc.Handle(methodHeight, n.handleHeight)
	n.rpc.Handle(methodBlocks, n.handleBlocks)
	n.rpc.Handle(methodVerifyChain, n.handleVerifyChain)
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
	if err := decode(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	resp, err := n.Endorse(&r.Proposal)
	if errors.Is(err, ErrBehind) {
		// A remote gateway moves past a peer that is behind, and needs to
		// tell that from the chaincode's answer.
		err = &transport.CodedError{Code: codeBehind, Msg: err.Error()}
	}
	if err != nil {
		return nil, err
	}
	return encode(resp), nil
}

// handleSubmit feeds a remote gateway's envelope into the node's cutter,
// mapping the typed ordering errors onto wire codes.
func (n *Node) handleSubmit(from string, req []byte) ([]byte, error) {
	var r submitReq
	if err := decode(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	if err := n.o.Submit(r.Tx); err != nil {
		code := ""
		switch {
		case errors.Is(err, ordering.ErrBacklog):
			code = codeBacklog
		case errors.Is(err, ordering.ErrStopped):
			code = codeStopped
		}
		if code != "" {
			return nil, &transport.CodedError{Code: code, Msg: err.Error()}
		}
		return nil, err
	}
	return nil, nil
}

// handleWaitCommit blocks until the transaction commits on this peer, for
// as long as the client asks but no longer than the node's CommitTimeout:
// a client cannot pin a waiter and its goroutine beyond the node's own
// bound. The waiter is registered first and the ledger checked second, so
// a commit that lands between a client's submit and its waitcommit call
// is never missed.
func (n *Node) handleWaitCommit(from string, req []byte) ([]byte, error) {
	var r waitCommitReq
	if err := decode(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	waiter := n.p.WaitForCommit(r.TxID)
	if blockNum, _, flag, ok := n.p.Ledger().TxLocation(r.TxID); ok {
		n.p.CancelWait(r.TxID)
		return encode(&waitCommitResp{Flag: flag, BlockNum: blockNum}), nil
	}
	timeout := n.net.CommitTimeout
	if r.Timeout > 0 && r.Timeout < timeout {
		timeout = r.Timeout
	}
	select {
	case flag := <-waiter:
		resp := waitCommitResp{Flag: flag}
		resp.BlockNum, _, _, _ = n.p.Ledger().TxLocation(r.TxID)
		return encode(&resp), nil
	case <-n.net.Clock.After(timeout):
		n.p.CancelWait(r.TxID)
		return nil, &transport.CodedError{Code: codeCommitTimeout, Msg: fmt.Sprintf("fabric: commit timeout: tx %s", r.TxID)}
	case <-n.done:
		n.p.CancelWait(r.TxID)
		return nil, &transport.CodedError{Code: codeStopped, Msg: "fabric: node shutting down"}
	}
}

func (n *Node) handleHeight(from string, req []byte) ([]byte, error) {
	var r channelReq
	if err := decode(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	return encode(&heightResp{Height: n.p.Height()}), nil
}

func (n *Node) handleBlocks(from string, req []byte) ([]byte, error) {
	var r blocksReq
	if err := decode(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	blocks, err := n.p.Ledger().BlocksFrom(r.From, maxSyncBlocks)
	if err != nil {
		return nil, err
	}
	return encode(&blocksResp{Blocks: blocks}), nil
}

func (n *Node) handleVerifyChain(from string, req []byte) ([]byte, error) {
	var r channelReq
	if err := decode(req, &r); err != nil {
		return nil, err
	}
	if err := n.checkChannel(r.Channel); err != nil {
		return nil, err
	}
	if err := n.p.Ledger().VerifyChain(); err != nil {
		return nil, err
	}
	return encode(&heightResp{Height: n.p.Height()}), nil
}
