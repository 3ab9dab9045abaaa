package ipfs

import (
	"fmt"
	"path/filepath"

	"socialchain/internal/bitswap"
	"socialchain/internal/blockstore"
	"socialchain/internal/sim"
)

// Cluster is a set of IPFS nodes on one bitswap network, each connected to
// every other. The paper's testbed ran two IPFS nodes; benchmarks construct
// clusters of configurable size.
type Cluster struct {
	nodes []*Node
}

// ClusterConfig configures cluster construction.
type ClusterConfig struct {
	// Nodes is the number of peers (>= 1).
	Nodes int
	// Latency applies to every bitswap want and reply (nil = zero).
	Latency sim.LatencyModel
	// Clock defaults to the real clock.
	Clock sim.Clock
	// NodeOptions apply to every node.
	NodeOptions Options
	// DataDir, when non-empty, makes every node's blockstore durable:
	// node i persists under DataDir/ipfs-<i> (blocks.log + db/, see
	// blockstore). Reopening the same directory recovers the stored blocks
	// and nothing else: the other nodes find recovered content by asking,
	// so reopening announces nothing.
	DataDir string
}

// NewCluster builds a connected cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("ipfs: cluster needs at least one node, got %d", cfg.Nodes)
	}
	c := &Cluster{}
	swapNet := bitswap.NewNetwork(cfg.Latency, cfg.Clock)
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("ipfs-%d", i)
		dir := ""
		if cfg.DataDir != "" {
			dir = filepath.Join(cfg.DataDir, name)
		}
		bs, err := blockstore.Open(dir)
		if err != nil {
			c.Close() // release the nodes already constructed
			return nil, fmt.Errorf("ipfs: node %s: %w", name, err)
		}
		node := &Node{
			name: name,
			opts: cfg.NodeOptions,
			bs:   bs,
			bw:   swapNet.NewEngine(name, bs),
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Close flushes and closes every node's stores (no-ops for in-memory
// clusters), returning the first error.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); first == nil {
			first = err
		}
	}
	return first
}
