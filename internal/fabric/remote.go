package fabric

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/ordering"
	"socialchain/internal/peer"
	"socialchain/internal/transport"
)

// RemoteConfig describes how a client process reaches a networked
// deployment.
type RemoteConfig struct {
	// Net is the deployment-wide network config (channel name, peer count,
	// policy, commit timeout). IdentitySeed is not needed — clients bring
	// their own signers.
	Net Config
	// Peers maps peer transport IDs ("peer0"...) to dial addresses.
	// Endorsement, submit and commit-wait RPCs go only to the peers listed
	// here: a client can drive a deployment through any reachable subset
	// that still satisfies the endorsement policy (which counts
	// Net.NumPeers).
	Peers map[string]string
	// ID optionally pins the client's transport identity (default: a
	// random "client-<hex>", unique per Dial).
	ID string
	// RPCTimeout bounds non-blocking calls (endorse, height; default 15s).
	RPCTimeout time.Duration
	// Obs, when non-nil, receives the client side of the lifecycle spans
	// (endorse / order / commit_wait histograms, labelled with the channel)
	// and the client endpoint's transport counters. Nil instruments
	// nothing.
	Obs *obs.Registry
}

// Remote is a client-side connection to an out-of-process deployment. It
// owns one client TCP endpoint (no listener — replies ride its outbound
// connections) and hands out gateways on the deployment's channel whose
// backend speaks the endorse/submit/waitcommit RPCs instead of calling
// in-process nodes.
// The Gateway logic itself — the client height every proposal carries,
// the quorum over digest groups, the policy pre-check — is the same code
// the in-process path runs, and a node's endorse RPC waits for a
// proposal's MinHeight exactly as an in-process endorsement does.
type Remote struct {
	cfg     RemoteConfig
	net     Config
	t       *transport.TCP
	rpc     *transport.RPC
	peerIDs []string
	ch      *RemoteChannel
}

// Dial connects to a deployment. It performs no handshake beyond lazily
// dialing peers on first use; a dead peer surfaces as RPC timeouts.
func Dial(cfg RemoteConfig) (*Remote, error) {
	net := cfg.Net
	if err := net.prepare(false); err != nil {
		return nil, err
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 15 * time.Second
	}
	id := cfg.ID
	if id == "" {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("fabric: client id: %w", err)
		}
		id = "client-" + hex.EncodeToString(b[:])
	}
	tr, err := net.newTCP(id, "", cfg.Peers)
	if err != nil {
		return nil, err
	}
	transport.Register(tr, cfg.Obs.With(obs.L("peer", id)))
	r := &Remote{
		cfg: cfg,
		net: net,
		t:   tr,
		rpc: transport.NewRPC(tr),
	}
	// Endorse through the peers the client holds addresses for, in a
	// stable order. Routing round-robin entry picks at an unlisted peer
	// would stall every Nth submit on the commit timeout.
	for id := range cfg.Peers {
		r.peerIDs = append(r.peerIDs, id)
	}
	sort.Strings(r.peerIDs)
	r.ch = &RemoteChannel{r: r, name: net.ChannelID}
	r.ch.sigs.Register(r.ch.obsReg().With(obs.L("component", "gateway")))
	for _, pid := range r.peerIDs {
		r.ch.endorsers = append(r.ch.endorsers, &remoteEndorser{rc: r.ch, id: pid, committed: make(map[string]uint64)})
	}
	return r, nil
}

// Close tears the client endpoint down.
func (r *Remote) Close() error { return r.t.Close() }

// Transport returns the client's TCP endpoint (metrics, tests).
func (r *Remote) Transport() *transport.TCP { return r.t }

// ChannelAt returns the deployment's channel; i must be 0.
func (r *Remote) ChannelAt(i int) *RemoteChannel { return []*RemoteChannel{r.ch}[i] }

// ChainHeight returns one peer's chain height.
func (r *Remote) ChainHeight(peerID string) (uint64, error) {
	var h heightResp
	err := call(r.rpc, peerID, methodHeight, &channelReq{Channel: r.ch.name}, &h, r.cfg.RPCTimeout)
	return h.Height, err
}

// VerifyChain asks one peer to verify its hash chain, returning the
// verified height.
func (r *Remote) VerifyChain(peerID string) (uint64, error) {
	var h heightResp
	err := call(r.rpc, peerID, methodVerifyChain, &channelReq{Channel: r.ch.name}, &h, r.cfg.RPCTimeout)
	return h.Height, err
}

// Blocks fetches one peer's blocks from height `from` (paged internally),
// for audits and equivalence checks.
func (r *Remote) Blocks(peerID string, from uint64) ([]*ledger.Block, error) {
	h, err := r.ChainHeight(peerID)
	if err != nil {
		return nil, err
	}
	src := &remoteBlockSource{rpc: r.rpc, peer: peerID, channel: r.ch.name, height: h}
	var out []*ledger.Block
	for {
		page, err := src.BlocksFrom(from + uint64(len(out)))
		if err != nil || len(page) == 0 {
			return out, err
		}
		out = append(out, page...)
	}
}

// RemoteChannel is the client-side handle on an out-of-process
// deployment's channel; it implements the same gateway backend the
// in-process Channel does.
type RemoteChannel struct {
	r         *Remote
	name      string
	endorsers []*remoteEndorser
	rr        atomic.Uint64
	tip       heightMark
	sigs      msp.Verifier // the gateways' admit checks
}

// Name returns the channel name.
func (rc *RemoteChannel) Name() string { return rc.name }

// Gateway creates a client bound to the remote channel. Gateway.Channel
// returns nil for remote gateways; everything else behaves as in-process.
func (rc *RemoteChannel) Gateway(client *msp.Signer) *Gateway {
	return newGateway(rc, nil, client)
}

func (rc *RemoteChannel) chName() string           { return rc.name }
func (rc *RemoteChannel) chPolicy() msp.Policy     { return rc.r.net.Policy }
func (rc *RemoteChannel) chMembers() *msp.Registry { return nil }
func (rc *RemoteChannel) verifier() *msp.Verifier  { return &rc.sigs }

// report drops the observation: which peers endorse is the deployment's
// decision, and a client has no watchdog to tell. The gateway has already
// left the response out of its envelope.
func (rc *RemoteChannel) report(string, string)                  {}
func (rc *RemoteChannel) commitTimeout() time.Duration           { return rc.r.net.CommitTimeout }
func (rc *RemoteChannel) now() time.Time                         { return rc.r.net.Clock.Now() }
func (rc *RemoteChannel) after(d time.Duration) <-chan time.Time { return rc.r.net.Clock.After(d) }
func (rc *RemoteChannel) seen() *heightMark                      { return &rc.tip }

// clientDelay is a no-op: over TCP the network hop is real, not simulated.
func (rc *RemoteChannel) clientDelay(string) {}

func (rc *RemoteChannel) activeEndorsers() []Endorser {
	out := make([]Endorser, len(rc.endorsers))
	for i, e := range rc.endorsers {
		out[i] = e
	}
	return out
}

func (rc *RemoteChannel) entryEndorsers() []Endorser { return rc.activeEndorsers() }

func (rc *RemoteChannel) rrNext() uint64 { return rc.rr.Add(1) }

func (rc *RemoteChannel) obsReg() *obs.Registry {
	return rc.r.cfg.Obs.With(obs.L("channel", rc.name))
}

// remoteEndorser speaks one node's RPC surface.
type remoteEndorser struct {
	rc *RemoteChannel
	id string

	mu        sync.Mutex
	committed map[string]uint64 // txID -> block number from waitcommit replies
}

func (e *remoteEndorser) ID() string { return e.id }

func (e *remoteEndorser) Endorse(prop *peer.Proposal) (*peer.ProposalResponse, error) {
	var resp peer.ProposalResponse
	req := endorseReq{Channel: e.rc.name, Proposal: *prop}
	if err := call(e.rc.r.rpc, e.id, methodEndorse, &req, &resp, e.rc.r.cfg.RPCTimeout); err != nil {
		if transport.ErrCode(err) == codeBehind {
			return nil, fmt.Errorf("%w: %s", ErrBehind, err)
		}
		return nil, err
	}
	return &resp, nil
}

// Order submits the envelope to this node's ordering service, then
// watches the node for the commit. The node's waitcommit handler registers
// its waiter before consulting the ledger, so a commit landing between the
// two RPCs is still observed.
func (e *remoteEndorser) Order(tx ledger.Transaction) (<-chan ledger.ValidationCode, error) {
	req := submitReq{Channel: e.rc.name, Tx: tx}
	if _, err := e.rc.r.rpc.Call(e.id, methodSubmit, encode(&req), e.rc.r.cfg.RPCTimeout); err != nil {
		switch transport.ErrCode(err) {
		case codeBacklog:
			return nil, fmt.Errorf("%w: %s", ordering.ErrBacklog, err)
		case codeStopped:
			return nil, fmt.Errorf("%w: %s", ordering.ErrStopped, err)
		}
		return nil, err
	}
	waiter := make(chan ledger.ValidationCode, 1)
	timeout := e.rc.r.net.CommitTimeout
	go func() {
		var resp waitCommitResp
		wreq := waitCommitReq{Channel: e.rc.name, TxID: tx.ID, Timeout: timeout}
		if err := call(e.rc.r.rpc, e.id, methodWaitCommit, &wreq, &resp, timeout+5*time.Second); err != nil {
			return // the gateway's own commit timeout fires
		}
		e.mu.Lock()
		e.committed[tx.ID] = resp.BlockNum
		e.mu.Unlock()
		waiter <- resp.Flag
	}()
	return waiter, nil
}

func (e *remoteEndorser) TxBlock(txID string) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	blockNum, ok := e.committed[txID]
	if ok {
		delete(e.committed, txID)
	}
	return blockNum, ok
}
