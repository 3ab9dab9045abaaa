// Package ipfs assembles the off-chain content-addressed store from its
// substrates: fixed-size chunking, Merkle-DAG construction, block storage
// and bitswap block exchange. A Node exposes the familiar Add/Get/Stat
// surface; a Cluster wires several nodes into one network, standing in for
// the paper's two-node IPFS deployment. Every node of a Cluster is
// connected to every other, so a node missing a block asks its peers for
// it, as IPFS bitswap does before it consults a DHT. Who serves a block is
// only a hint: a block is trusted because it hashes to its CID, which is
// checked once, when the reply arrives, before the block is stored. A node
// therefore keeps no per-record state outside its blockstore.
package ipfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"socialchain/internal/bitswap"
	"socialchain/internal/blockstore"
	"socialchain/internal/chunker"
	"socialchain/internal/cid"
	"socialchain/internal/dag"
)

// Options configure a Node.
type Options struct {
	// ChunkSize is the fixed chunk size; 0 means chunker.DefaultChunkSize.
	ChunkSize int
	// Fanout is the DAG interior-node width; 0 means dag.DefaultFanout.
	Fanout int
}

// Node is one IPFS peer.
type Node struct {
	name string
	opts Options

	bs *blockstore.Store
	bw *bitswap.Engine
}

// blockOf encodes a DAG node into its stored block form: its one hash.
func blockOf(n *dag.Node) blockstore.Block {
	if len(n.Links) == 0 {
		return blockstore.NewBlock(n.Data)
	}
	return blockstore.NewDagBlock(n.Encode())
}

// decodeBlock reverses blockOf based on the CID codec.
func decodeBlock(b blockstore.Block) (*dag.Node, error) {
	switch b.Cid().Codec() {
	case cid.CodecRaw:
		return &dag.Node{Data: b.Data()}, nil
	case cid.CodecDagNode:
		return dag.Decode(b.Data())
	default:
		return nil, fmt.Errorf("ipfs: unknown codec %#x", b.Cid().Codec())
	}
}

// localStore adapts the blockstore to the dag builder/walker interfaces.
type localStore struct{ bs *blockstore.Store }

func (s localStore) PutNode(n *dag.Node) (cid.Cid, error) {
	b := blockOf(n)
	if err := s.bs.Put(b); err != nil {
		return cid.Undef, err
	}
	return b.Cid(), nil
}

func (s localStore) GetNode(c cid.Cid) (*dag.Node, error) {
	b, err := s.bs.Get(c)
	if err != nil {
		return nil, err
	}
	return decodeBlock(b)
}

// Name returns the node's peer name.
func (n *Node) Name() string { return n.name }

// Blockstore exposes the underlying store (stats, tests).
func (n *Node) Blockstore() *blockstore.Store { return n.bs }

// Bitswap exposes the exchange engine (stats).
func (n *Node) Bitswap() *bitswap.Engine { return n.bw }

// Add imports data: chunk, build the Merkle DAG and store its blocks. It
// returns the root CID.
func (n *Node) Add(data []byte) (cid.Cid, error) {
	return n.AddReader(bytes.NewReader(data))
}

// AddReader is Add over a stream.
func (n *Node) AddReader(r io.Reader) (cid.Cid, error) {
	chunks, err := chunker.ChunkAll(chunker.NewFixed(r, n.opts.ChunkSize))
	if err != nil {
		return cid.Undef, fmt.Errorf("ipfs: chunk: %w", err)
	}
	fanout := n.opts.Fanout
	if fanout == 0 {
		fanout = dag.DefaultFanout
	}
	root, _, err := dag.BuildFileFanout(localStore{n.bs}, chunks, fanout)
	if err != nil {
		return cid.Undef, fmt.Errorf("ipfs: build dag: %w", err)
	}
	return root, nil
}

// ErrNotFound signals unreachable content.
var ErrNotFound = errors.New("ipfs: content not found")

// Get retrieves the full payload addressed by root. Missing blocks are
// fetched over bitswap from the other nodes; every fetched block is
// hash-verified before use. Reassembly reuses the node set the fetch
// already decoded, so the DAG is walked (and each block decoded) once,
// not once to fetch and again to concatenate.
func (n *Node) Get(root cid.Cid) ([]byte, error) {
	if !root.Defined() {
		return nil, errors.New("ipfs: undefined cid")
	}
	nodes, err := n.fetchDAG(root)
	if err != nil {
		return nil, err
	}
	return dag.Reassemble(fetchedNodes(nodes), root)
}

// fetchedNodes serves reassembly from the node set fetchDAG decoded: the
// whole DAG under the root.
type fetchedNodes map[cid.Cid]*dag.Node

func (f fetchedNodes) GetNode(c cid.Cid) (*dag.Node, error) {
	if node, ok := f[c]; ok {
		return node, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, c)
}

// Has reports whether the complete DAG under root is present locally. The
// traversal stops cleanly at the first missing or undecodable block — no
// sentinel error threading through the generic walker — and, unlike a
// presence check on the root alone, a gap anywhere in the DAG reports
// false.
func (n *Node) Has(root cid.Cid) bool {
	seen := map[cid.Cid]bool{root: true}
	stack := []cid.Cid{root}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b, err := n.bs.Get(c)
		if err != nil {
			return false
		}
		node, err := decodeBlock(b)
		if err != nil {
			return false
		}
		for _, l := range node.Links {
			// Shared chunks repeat a CID; check each block once.
			if !seen[l.Cid] {
				seen[l.Cid] = true
				stack = append(stack, l.Cid)
			}
		}
	}
	return true
}

// fetchDAG ensures every block of the DAG under root is in the local
// store, fetching missing blocks level by level with parallel bitswap
// requests in one session (the node that served the root is asked first for
// the rest), and returns the decoded node set so callers reuse it instead
// of re-walking the DAG.
func (n *Node) fetchDAG(root cid.Cid) (map[cid.Cid]*dag.Node, error) {
	var session *bitswap.Session
	ensure := func(cids []cid.Cid) error {
		var missing []cid.Cid
		for _, c := range cids {
			if !n.bs.Has(c) {
				missing = append(missing, c)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		if session == nil {
			session = n.bw.NewSession()
		}
		if err := session.FetchMany(missing); err != nil {
			return fmt.Errorf("%w: %v", ErrNotFound, err)
		}
		return nil
	}

	nodes := make(map[cid.Cid]*dag.Node)
	enqueued := map[cid.Cid]bool{root: true}
	frontier := []cid.Cid{root}
	for len(frontier) > 0 {
		if err := ensure(frontier); err != nil {
			return nil, err
		}
		var next []cid.Cid
		for _, c := range frontier {
			node, err := localStore{n.bs}.GetNode(c)
			if err != nil {
				return nil, err
			}
			nodes[c] = node
			for _, l := range node.Links {
				// Identical chunks share a CID (including among siblings):
				// fetch and decode each distinct block once.
				if !enqueued[l.Cid] {
					enqueued[l.Cid] = true
					next = append(next, l.Cid)
				}
			}
		}
		frontier = next
	}
	return nodes, nil
}

// Close flushes and closes the node's blockstore.
func (n *Node) Close() error { return n.bs.Close() }

// Stat describes a stored object.
type Stat struct {
	Cid       cid.Cid
	Blocks    int
	TotalSize uint64
}

// Stat walks a local DAG and reports its block count and payload size.
func (n *Node) Stat(root cid.Cid) (Stat, error) {
	s := Stat{Cid: root}
	var payload uint64
	err := dag.Walk(localStore{n.bs}, root, func(c cid.Cid, node *dag.Node) error {
		s.Blocks++
		if len(node.Links) == 0 {
			payload += uint64(len(node.Data))
		}
		return nil
	})
	if err != nil {
		return Stat{}, err
	}
	s.TotalSize = payload
	return s, nil
}
