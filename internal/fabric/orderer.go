package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"socialchain/internal/obs"
	"socialchain/internal/ordering"
	"socialchain/internal/transport"
)

// OrdererConfig describes the ordering process of a networked deployment.
type OrdererConfig struct {
	// Listen is the TCP listen address.
	Listen string
	// Peers maps the peer processes' transport IDs to their dial addresses
	// (missing peers are adopted when they dial in).
	Peers map[string]string
	// Net is the deployment-wide network config (same rules as NodeConfig).
	Net Config
}

// Orderer is the deployment's ordering process: it runs the channel's
// transaction cutter (ordering.Service) and hands each cut batch to the
// peer processes' consensus validators by broadcasting a propose RPC —
// consensus deduplicates by digest, so the broadcast reaches whichever
// validator currently leads without the orderer tracking views. Remote
// gateways reach it through the submit RPC; ordering backpressure and
// shutdown map onto ordering.ErrBacklog / ordering.ErrStopped across the
// wire.
type Orderer struct {
	net     Config
	t       *transport.TCP
	rpc     *transport.RPC
	svc     *ordering.Service
	peerIDs []string

	obsReg *obs.Registry
	health *obs.Health
	admin  *obs.AdminServer

	mu      sync.Mutex
	started bool
	closed  bool
}

// NewOrderer builds (but does not start) the ordering process.
func NewOrderer(cfg OrdererConfig) (*Orderer, error) {
	net := cfg.Net
	net.fill()
	if err := net.checkChannels(); err != nil {
		return nil, err
	}
	if net.IdentitySeed == "" {
		return nil, errors.New("fabric: OrdererConfig.Net.IdentitySeed must be set so every process derives the same identities")
	}
	o := &Orderer{
		net:    net,
		obsReg: obs.NewRegistry(),
		health: obs.NewHealth(0, nil),
	}
	for i := 0; i < net.NumPeers; i++ {
		s, err := networkSigner(&net, i)
		if err != nil {
			return nil, err
		}
		o.peerIDs = append(o.peerIDs, s.Name)
	}

	tr, err := transport.NewTCP(transport.TCPConfig{
		ID:          OrdererID,
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
	o.t = tr
	o.rpc = transport.NewRPC(tr)
	tr.Counters().Register(o.obsReg)

	prop := &rpcProposer{rpc: o.rpc, channel: net.ChannelID, peers: o.peerIDs}
	o.svc = ordering.NewService(net.Cutter, prop, net.Clock)
	o.svc.Observe(o.obsReg.With(obs.L("channel", net.ChannelID)))
	// The orderer holds no chain, so its health is pure connectivity: it
	// must reach at least one validator to make progress.
	o.health.Register(net.ChannelID, obs.Probe{Peers: o.t.ConnectedPeers, MinPeers: 1})
	o.rpc.Handle(methodSubmit, o.handleSubmit)
	return o, nil
}

// Addr returns the orderer's bound listen address.
func (o *Orderer) Addr() string { return o.t.Addr() }

// Transport returns the orderer's TCP endpoint (metrics, tests).
func (o *Orderer) Transport() *transport.TCP { return o.t }

// Start launches the ordering service.
func (o *Orderer) Start() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.started {
		return
	}
	o.started = true
	o.svc.Start()
}

// Close stops ordering and the transport.
func (o *Orderer) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	started := o.started
	o.mu.Unlock()
	o.admin.Close()
	if started {
		o.svc.Stop()
	}
	return o.t.Close()
}

// rpcProposer hands cut batches to the peer processes' validators.
type rpcProposer struct {
	rpc     *transport.RPC
	channel string
	peers   []string
}

// Propose implements ordering.Proposer by broadcasting the batch to every
// validator concurrently. Lost proposals are re-proposed by nothing at
// this layer — the gateway's commit timeout and MVCC retry own end-to-end
// delivery, matching the loss model of the in-process path.
func (p *rpcProposer) Propose(payload []byte) {
	req := proposeReq{Channel: p.channel, Payload: payload}.encode()
	for _, id := range p.peers {
		go func(id string) {
			_, _ = p.rpc.Call(id, methodPropose, req, 5*time.Second)
		}(id)
	}
}

// handleSubmit feeds a remote gateway's envelope into the cutter, mapping
// the typed ordering errors onto wire codes.
func (o *Orderer) handleSubmit(from string, req []byte) ([]byte, error) {
	r, err := decodeSubmitReq(req)
	if err != nil {
		return nil, err
	}
	if r.Channel != o.net.ChannelID {
		return nil, &transport.CodedError{Code: "nochannel", Msg: fmt.Sprintf("fabric: orderer hosts no channel %q", r.Channel)}
	}
	if err := o.svc.Submit(r.Tx); err != nil {
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
	return json.Marshal(emptyResp{})
}
