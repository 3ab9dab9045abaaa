package dht

import (
	"fmt"
	"sort"
	"sync"

	"socialchain/internal/cid"
	"socialchain/internal/sim"
)

// Network connects DHT nodes in-process. The simplified DHT's three RPCs
// are synchronous method calls delayed by the latency model, mimicking a
// request/response wire protocol.
type Network struct {
	mu      sync.RWMutex
	nodes   map[string]*Node
	latency sim.LatencyModel
	clock   sim.Clock
}

// NewNetwork creates a network with the given latency model (nil = zero).
func NewNetwork(latency sim.LatencyModel, clock sim.Clock) *Network {
	if latency == nil {
		latency = sim.ZeroLatency{}
	}
	if clock == nil {
		clock = sim.RealClock{}
	}
	return &Network{nodes: make(map[string]*Node), latency: latency, clock: clock}
}

func (n *Network) lookup(name string) (*Node, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	node, ok := n.nodes[name]
	if !ok {
		return nil, fmt.Errorf("dht: unknown peer %q", name)
	}
	return node, nil
}

func (n *Network) delay(from, to string) {
	if d := n.latency.Delay(from, to); d > 0 {
		n.clock.Sleep(d)
	}
}

// Node is one DHT participant.
type Node struct {
	name string
	id   ID
	net  *Network
	rt   *RoutingTable

	mu        sync.RWMutex
	providers map[cid.Cid]map[string]bool
}

// NewNode registers a node named name on the network.
func (n *Network) NewNode(name string) *Node {
	node := &Node{
		name:      name,
		id:        PeerID(name),
		net:       n,
		rt:        NewRoutingTable(PeerID(name)),
		providers: make(map[cid.Cid]map[string]bool),
	}
	n.mu.Lock()
	n.nodes[name] = node
	n.mu.Unlock()
	return node
}

// FindNode asks peer to for its closest known peers to target.
func (n *Network) FindNode(from PeerInfo, to string, target ID) ([]PeerInfo, error) {
	remote, err := n.lookup(to)
	if err != nil {
		return nil, err
	}
	n.delay(from.Name, to)
	res := remote.handleFindNode(from, target)
	n.delay(to, from.Name)
	return res, nil
}

// AddProvider tells peer to that provider holds content c.
func (n *Network) AddProvider(from PeerInfo, to string, c cid.Cid, provider string) error {
	remote, err := n.lookup(to)
	if err != nil {
		return err
	}
	n.delay(from.Name, to)
	remote.handleAddProvider(from, c, provider)
	return nil
}

// GetProviders asks peer to for the providers of c it knows and for its
// closest peers to c.
func (n *Network) GetProviders(from PeerInfo, to string, c cid.Cid) ([]string, []PeerInfo, error) {
	remote, err := n.lookup(to)
	if err != nil {
		return nil, nil, err
	}
	n.delay(from.Name, to)
	provs, closer := remote.handleGetProviders(from, c)
	n.delay(to, from.Name)
	return provs, closer, nil
}

// Name returns the peer name.
func (n *Node) Name() string { return n.name }

// ID returns the node's keyspace ID.
func (n *Node) ID() ID { return n.id }

// Info returns the node's PeerInfo.
func (n *Node) Info() PeerInfo { return PeerInfo{Name: n.name, ID: n.id} }

// Bootstrap introduces the node to a seed peer and populates its routing
// table with a self-lookup, the standard Kademlia join.
func (n *Node) Bootstrap(seed PeerInfo) {
	n.rt.Update(seed)
	n.IterativeFindNode(n.id)
}

// --- RPC handlers (remote side) ---

// handleFindNode returns the k closest peers this node knows to target.
func (n *Node) handleFindNode(from PeerInfo, target ID) []PeerInfo {
	n.rt.Update(from)
	return n.rt.Closest(target, BucketSize)
}

// handleAddProvider records that provider holds content c.
func (n *Node) handleAddProvider(from PeerInfo, c cid.Cid, provider string) {
	n.rt.Update(from)
	n.mu.Lock()
	defer n.mu.Unlock()
	set, ok := n.providers[c]
	if !ok {
		set = make(map[string]bool)
		n.providers[c] = set
	}
	set[provider] = true
}

// handleGetProviders returns known providers of c plus closer peers.
func (n *Node) handleGetProviders(from PeerInfo, c cid.Cid) ([]string, []PeerInfo) {
	n.rt.Update(from)
	n.mu.RLock()
	var provs []string
	for p := range n.providers[c] {
		provs = append(provs, p)
	}
	n.mu.RUnlock()
	sort.Strings(provs)
	return provs, n.rt.Closest(KeyID(c), BucketSize)
}

// --- Client-side RPCs ---

func (n *Node) rpcFindNode(peer string, target ID) ([]PeerInfo, error) {
	return n.net.FindNode(n.Info(), peer, target)
}

func (n *Node) rpcAddProvider(peer string, c cid.Cid, provider string) error {
	return n.net.AddProvider(n.Info(), peer, c, provider)
}

func (n *Node) rpcGetProviders(peer string, c cid.Cid) ([]string, []PeerInfo, error) {
	return n.net.GetProviders(n.Info(), peer, c)
}

// alpha is Kademlia's lookup concurrency parameter.
const alpha = 3

// IterativeFindNode performs the iterative lookup, returning the k closest
// live peers to target and refreshing the routing table along the way.
func (n *Node) IterativeFindNode(target ID) []PeerInfo {
	shortlist := n.rt.Closest(target, BucketSize)
	queried := map[string]bool{n.name: true}
	for {
		// Pick up to alpha unqueried peers nearest the target.
		var batch []PeerInfo
		for _, p := range shortlist {
			if !queried[p.Name] {
				batch = append(batch, p)
				if len(batch) == alpha {
					break
				}
			}
		}
		if len(batch) == 0 {
			break
		}
		progressed := false
		for _, p := range batch {
			queried[p.Name] = true
			res, err := n.rpcFindNode(p.Name, target)
			if err != nil {
				continue
			}
			n.rt.Update(p)
			for _, found := range res {
				if found.Name == n.name {
					continue
				}
				n.rt.Update(found)
				if !containsPeer(shortlist, found) {
					shortlist = append(shortlist, found)
					progressed = true
				}
			}
		}
		sort.Slice(shortlist, func(i, j int) bool {
			return Distance(shortlist[i].ID, target).Less(Distance(shortlist[j].ID, target))
		})
		if len(shortlist) > BucketSize {
			shortlist = shortlist[:BucketSize]
		}
		if !progressed {
			break
		}
	}
	return shortlist
}

func containsPeer(list []PeerInfo, p PeerInfo) bool {
	for _, e := range list {
		if e.ID == p.ID {
			return true
		}
	}
	return false
}

// Provide announces this node as a provider of c to the k closest peers to
// the key (including itself if applicable).
func (n *Node) Provide(c cid.Cid) error {
	targets := n.IterativeFindNode(KeyID(c))
	if len(targets) == 0 {
		// Single-node network: record locally.
		n.handleAddProvider(n.Info(), c, n.name)
		return nil
	}
	var firstErr error
	for _, p := range targets {
		if err := n.rpcAddProvider(p.Name, c, n.name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Also record locally so lookups on this node succeed immediately.
	n.handleAddProvider(n.Info(), c, n.name)
	return firstErr
}

// FindProviders returns up to max peer names that advertise content c.
func (n *Node) FindProviders(c cid.Cid, max int) []string {
	found := make(map[string]bool)
	// Local records first.
	n.mu.RLock()
	for p := range n.providers[c] {
		found[p] = true
	}
	n.mu.RUnlock()

	if len(found) < max {
		for _, p := range n.IterativeFindNode(KeyID(c)) {
			provs, _, err := n.rpcGetProviders(p.Name, c)
			if err != nil {
				continue
			}
			for _, prov := range provs {
				found[prov] = true
			}
			if len(found) >= max {
				break
			}
		}
	}
	out := make([]string, 0, len(found))
	for p := range found {
		out = append(out, p)
	}
	sort.Strings(out)
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// ProviderCount reports how many local provider records this node holds
// (for tests and stats).
func (n *Node) ProviderCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.providers)
}
