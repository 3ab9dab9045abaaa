// Package fabric assembles the permissioned blockchain network: peers,
// consensus validators, ordering services and the deployed chaincodes, plus
// the Gateway client through which applications submit and evaluate
// transactions. It corresponds to the channel-level wiring of Hyperledger
// Fabric that the paper's framework builds on.
//
// A deployment runs one channel, as the paper's does (Config.ChannelID,
// default "traffic-channel"). Each peer is one Node: its peer, validator,
// ordering service, RPC surface and catch-up. In process a Network is N
// Nodes over one transport medium; across processes each process runs one
// Node and Remote clients dial them. Clients obtain gateways through
// Network.ChannelAt(0).Gateway or Remote.ChannelAt(0).Gateway.
package fabric

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/consensus"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/ordering"
	"socialchain/internal/sim"
	"socialchain/internal/statedb"
	"socialchain/internal/storage"
	"socialchain/internal/transport"
)

// Config describes a network to build.
type Config struct {
	// ChannelID names the deployment's one channel (default
	// "traffic-channel", the paper's).
	ChannelID string
	// NumChannels must be 0 or 1: a deployment runs one channel. Any other
	// value is refused by NewNetwork, NewNode and Dial.
	NumChannels int
	// NumPeers is the number of endorsing/validating peers (default 4).
	NumPeers int
	// Latency models the message delay between nodes (nil = zero).
	Latency sim.LatencyModel
	// Clock defaults to the real clock.
	Clock sim.Clock
	// Cutter configures every peer's batching.
	Cutter ordering.CutterConfig
	// ConsensusTimeout is the view-change timeout (default 2s).
	ConsensusTimeout time.Duration
	// Policy is the endorsement policy (zero = the paper's 2/3 quorum,
	// msp.TwoThirds(NumPeers)).
	Policy msp.QuorumPolicy
	// Behaviors injects byzantine consensus behaviour into the validator of
	// a peer index.
	Behaviors map[int]consensus.Behavior
	// WatchdogThreshold flags an endorser after this many misbehaviour
	// reports (default 3).
	WatchdogThreshold int
	// CommitTimeout bounds how long a Submit waits for commit (default 30s).
	CommitTimeout time.Duration
	// StateDurability selects the front-log fsync policy of the peers'
	// block logs ("none", "batch" or "always"; default none). Unknown
	// names fail network construction when the peers open their stores.
	StateDurability storage.Durability
	// DataDir, when non-empty, makes every peer durable: peer i keeps its
	// state engine and block log under DataDir/peer<i>. Building a network
	// over a directory with previous data recovers it — peers replay their
	// block logs and lagging peers sync from the freshest recovered peer —
	// before consensus starts. A directory in the multi-channel layout an
	// older build wrote (<ChannelID>-<n>/peer<i>) is refused untouched.
	DataDir string
	// StateIndexes declares the secondary indexes every peer's world state
	// maintains (nil = none). All peers get the same list — index reads
	// feed endorsement results.
	StateIndexes []statedb.IndexSpec
	// Transport selects the medium between this network's nodes: "inproc"
	// (default — one transport.InProc endpoint per peer, delivery by
	// function call honouring Latency) or "tcp" (real localhost sockets:
	// the network owns one transport.TCP endpoint per peer, and messages are
	// framed and CRC-checked exactly as they are between separate OS
	// processes). Either way consensus rides a consensus.Bus and the nodes
	// serve their RPC surface on the same endpoint. Unknown kinds fail
	// construction.
	Transport string
	// IdentitySeed, when non-empty, derives every peer's signing key
	// deterministically from the seed (msp.NewSignerFromSeed), so separate
	// OS processes of one deployment construct identical identities. Empty
	// (default) generates fresh random keys.
	IdentitySeed string
	// Obs, when non-nil, receives every component's metrics: per-peer
	// pipeline histograms and commit counters (labelled channel+peer),
	// ordering queue depths, consensus health and transport traffic. Nil
	// (default) instruments nothing — the nil registry hands out dangling
	// instruments, so hot paths carry only an atomic add either way.
	Obs *obs.Registry
	// SlowTraces, when non-nil, collects end-to-end trace records for
	// committed transactions slower than its threshold (see obs.TraceRing),
	// shared by every peer.
	SlowTraces *obs.TraceRing
}

func (c *Config) fill() {
	if c.ChannelID == "" {
		c.ChannelID = "traffic-channel"
	}
	if c.NumPeers <= 0 {
		c.NumPeers = 4
	}
	if c.Clock == nil {
		c.Clock = sim.RealClock{}
	}
	if c.ConsensusTimeout <= 0 {
		c.ConsensusTimeout = 2 * time.Second
	}
	if c.CommitTimeout <= 0 {
		c.CommitTimeout = 30 * time.Second
	}
	if c.WatchdogThreshold <= 0 {
		c.WatchdogThreshold = 3
	}
	if c.Policy == (msp.QuorumPolicy{}) {
		c.Policy = msp.TwoThirds(c.NumPeers)
	}
}

// prepare fills c's defaults and, before anything is opened, refuses what
// no deployment is built from: more than one channel, a missing
// IdentitySeed where the processes must derive one identity set (seeded),
// and a data directory in the multi-channel layout an older build wrote.
func (c *Config) prepare(seeded bool) error {
	c.fill()
	if c.NumChannels != 0 && c.NumChannels != 1 {
		return fmt.Errorf("fabric: NumChannels %d: a deployment runs one channel (0 or 1)", c.NumChannels)
	}
	if seeded && c.IdentitySeed == "" {
		return errors.New("fabric: Config.IdentitySeed must be set so every process derives the same identities")
	}
	return refuseChannelDirs(c.DataDir, c.ChannelID)
}

// newTCP opens one TCP endpoint of the deployment, with the transport's
// default queue and dial tunings. An empty listen address makes a
// client-only endpoint.
func (c *Config) newTCP(id, listen string, book map[string]string) (*transport.TCP, error) {
	tr, err := transport.NewTCP(transport.TCPConfig{ID: id, Cluster: c.ChannelID, Listen: listen, Peers: book})
	if err != nil {
		return nil, fmt.Errorf("fabric: transport %s: %w", id, err)
	}
	return tr, nil
}

// refuseChannelDirs refuses a data directory in the multi-channel layout
// an older build wrote, peers under <ChannelID>-<n>/peer<i>: this build
// would open an empty chain beside them. It reads the directory and
// writes nothing.
func refuseChannelDirs(dataDir, channelID string) error {
	if dataDir == "" {
		return nil
	}
	entries, err := os.ReadDir(dataDir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	for _, e := range entries {
		n, ok := strings.CutPrefix(e.Name(), channelID+"-")
		if !ok || !e.IsDir() {
			continue
		}
		if _, err := strconv.Atoi(n); err != nil {
			continue
		}
		sub, _ := os.ReadDir(filepath.Join(dataDir, e.Name()))
		for _, p := range sub {
			if strings.HasPrefix(p.Name(), "peer") {
				return fmt.Errorf("fabric: %s holds %s: a data directory in the multi-channel layout (<channel>-<n>/peer<i>) an older build wrote; this build runs one channel with peer i under peer<i> (no migration: start from an empty data directory)",
					dataDir, filepath.Join(e.Name(), p.Name()))
			}
		}
	}
	return nil
}

// Network is a running in-process deployment: one Node per peer over one
// transport medium, and the channel's gateway backend over those nodes.
type Network struct {
	cfg Config
	*peerSet
	nodes []*Node
	ch    *Channel

	// transports lists the nodes' endpoints when cfg.Transport is "tcp"
	// (nil for the in-process hub).
	transports []*transport.TCP
}

// NewNetwork builds (but does not start) a network: it opens one endpoint
// per peer on one medium, builds a Node over each, and runs every node's
// catch-up once, so recovered peers whose block log missed the tail
// (killed before the last blocks were logged) start consensus from the
// freshest peer's height.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.prepare(false); err != nil {
		return nil, err
	}
	kind, err := transport.ParseKind(cfg.Transport)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	if cfg.DataDir != "" && cfg.IdentitySeed == "" {
		// A chain names its endorsers by key fingerprint, so a durable
		// deployment's peers must come back with the keys they had.
		if cfg.IdentitySeed, err = durableSeed(filepath.Join(cfg.DataDir, "identity.seed")); err != nil {
			return nil, err
		}
	}
	n := &Network{cfg: cfg}
	if n.peerSet, err = newPeerSet(&cfg); err != nil {
		return nil, err
	}
	endpoints, err := n.openEndpoints(kind)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Network, error) {
		n.Close()
		for _, e := range endpoints[len(n.nodes):] {
			e.Close()
		}
		return nil, fmt.Errorf("fabric: channel %s: %w", cfg.ChannelID, err)
	}
	for i, e := range endpoints {
		node, err := newNode(cfg, n.peerSet, i, e)
		if err != nil {
			return fail(err)
		}
		n.nodes = append(n.nodes, node)
	}
	for _, node := range n.nodes {
		if _, err := node.catchUp(); err != nil {
			return fail(err)
		}
	}
	n.ch = newChannel(n)
	return n, nil
}

// openEndpoints opens one endpoint per peer: on one in-process hub, or as a
// full mesh of localhost TCP endpoints, one listener per peer as a
// multi-process deployment has one per process.
func (n *Network) openEndpoints(kind transport.Kind) ([]transport.Transport, error) {
	cfg := &n.cfg
	var endpoints []transport.Transport
	if kind != transport.KindTCP {
		hub := transport.NewInProcNet(cfg.Latency, cfg.Clock)
		for _, id := range n.ids {
			endpoints = append(endpoints, hub.Node(id))
		}
		return endpoints, nil
	}
	for _, id := range n.ids {
		tr, err := cfg.newTCP(id, "127.0.0.1:0", nil)
		if err != nil {
			for _, e := range endpoints {
				e.Close()
			}
			return nil, err
		}
		n.transports = append(n.transports, tr)
		endpoints = append(endpoints, tr)
	}
	for i, tr := range n.transports {
		for j, other := range n.transports {
			if i != j {
				tr.AddPeer(n.ids[j], other.Addr())
			}
		}
	}
	return endpoints, nil
}

// peerSet is a deployment's peer identity material, built once per
// deployment and handed to every node. Every process builds the same one
// from Config (see networkSigner), which is how separate processes agree
// on who the validators are and whose endorsements count.
type peerSet struct {
	ids     []string                // validators address each other by bare peer name
	signers []*msp.Signer           // index i is peer i
	idents  map[string]msp.Identity // by peer name, for consensus messages
	members *msp.Registry           // by key fingerprint, for endorsements
}

func newPeerSet(cfg *Config) (*peerSet, error) {
	ps := &peerSet{
		ids:     make([]string, cfg.NumPeers),
		signers: make([]*msp.Signer, cfg.NumPeers),
		idents:  make(map[string]msp.Identity, cfg.NumPeers),
	}
	all := make([]msp.Identity, cfg.NumPeers)
	for i := range all {
		s, err := networkSigner(cfg, i)
		if err != nil {
			return nil, err
		}
		ps.ids[i], ps.signers[i], ps.idents[s.Name], all[i] = s.Name, s, s.Identity, s.Identity
	}
	var err error
	ps.members, err = msp.NewRegistry(all...)
	return ps, err
}

// durableSeed returns the identity seed kept at path, creating a random one
// on first use. It is key material: whoever reads it can sign as any peer.
func durableSeed(path string) (string, error) {
	if seed, err := os.ReadFile(path); err == nil && len(seed) > 0 {
		return string(seed), nil
	} else if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "", fmt.Errorf("fabric: identity seed: %w", err)
	}
	raw := make([]byte, 32)
	if _, err := rand.Read(raw); err != nil {
		return "", fmt.Errorf("fabric: identity seed: %w", err)
	}
	seed := hex.EncodeToString(raw)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("fabric: identity seed: %w", err)
	}
	if err := os.WriteFile(path, []byte(seed), 0o600); err != nil {
		return "", fmt.Errorf("fabric: identity seed: %w", err)
	}
	return seed, nil
}

// networkSigner builds peer i's signing identity for cfg, in organisation
// org<i mod 3>: random keys by default, seed-derived when IdentitySeed is
// set (separate processes of one deployment derive identical keys — see
// NewNode).
func networkSigner(cfg *Config, i int) (*msp.Signer, error) {
	org := fmt.Sprintf("org%d", i%3)
	name := fmt.Sprintf("peer%d", i)
	if cfg.IdentitySeed != "" {
		return msp.NewSignerFromSeed(cfg.IdentitySeed, org, name, msp.RoleMember), nil
	}
	s, err := msp.NewSigner(org, name, msp.RoleMember)
	if err != nil {
		return nil, fmt.Errorf("fabric: signer %s: %w", name, err)
	}
	return s, nil
}

// Transports returns the per-peer TCP endpoints (nil unless Config.
// Transport is "tcp"); index i is peer i. Exposed for wire-level tests and
// metrics collection.
func (n *Network) Transports() []*transport.TCP { return n.transports }

// Start launches every node's validator and ordering service. The nodes
// share one process, so none restarts alone and no anti-entropy loop
// polls: they catch up when the network opens, and a peer cut off by a
// partition catches up through Channel.SyncPeer. (A committed block is
// then never read back from a block file while the network runs.)
func (n *Network) Start() {
	for _, node := range n.nodes {
		node.start(false)
	}
}

// Stop shuts the network down (consensus and ordering only; peers'
// durable stores stay open — see Close).
func (n *Network) Stop() {
	for _, node := range n.nodes {
		node.stop()
	}
}

// Close stops the network, flushes and closes every peer's durable stores
// and closes the endpoints, returning the first close error. A durable
// deployment must Close (not just Stop) before its data directory is
// reopened.
func (n *Network) Close() error {
	n.Stop()
	var first error
	for _, node := range n.nodes {
		if err := node.Close(); first == nil {
			first = err
		}
	}
	return first
}

// Deploy registers a chaincode on every node.
func (n *Network) Deploy(cc chaincode.Chaincode) error {
	for _, node := range n.nodes {
		if err := node.Deploy(cc); err != nil {
			return err
		}
	}
	return nil
}

// MustDeploy registers a chaincode, panicking on duplicates (setup-time
// programming error).
func (n *Network) MustDeploy(cc chaincode.Chaincode) {
	if err := n.Deploy(cc); err != nil {
		panic(err)
	}
}

// ChannelAt returns the network's channel; i must be 0.
func (n *Network) ChannelAt(i int) *Channel { return n.Channels()[i] }

// Channels returns the network's one channel as a slice.
func (n *Network) Channels() []*Channel { return []*Channel{n.ch} }

// Identities returns the peers' identities, the set whose endorsements
// count.
func (n *Network) Identities() *msp.Registry { return n.members }

// Policy returns the endorsement policy.
func (n *Network) Policy() msp.QuorumPolicy { return n.cfg.Policy }

// NumPeers returns the peer count.
func (n *Network) NumPeers() int { return len(n.nodes) }

// CommitErrors returns the number of batches that failed to commit.
func (n *Network) CommitErrors() uint64 { return n.ch.CommitErrors() }
