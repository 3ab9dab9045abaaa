package dag

import (
	"fmt"

	"socialchain/internal/cid"
)

// DefaultFanout is the maximum number of links per interior node, matching
// the UnixFS importer's default layout width of 174... trimmed to a rounder
// value; the exact constant only affects tree depth, not correctness.
const DefaultFanout = 174

// NodeGetter resolves a CID to its node. The blockstore-backed store and
// the bitswap session both implement it.
type NodeGetter interface {
	GetNode(c cid.Cid) (*Node, error)
}

// NodePutter persists nodes. Put must store the node retrievable by its CID.
type NodePutter interface {
	PutNode(n *Node) (cid.Cid, error)
}

// BuildFile assembles a balanced Merkle DAG over the given chunks, storing
// every node through put, and returns the root CID plus total payload size.
// A single chunk yields a raw leaf whose CID is the hash of the bytes, so
// small files have minimal overhead.
func BuildFile(put NodePutter, chunks [][]byte) (cid.Cid, uint64, error) {
	return BuildFileFanout(put, chunks, DefaultFanout)
}

// BuildFileFanout is BuildFile with an explicit interior-node fanout.
func BuildFileFanout(put NodePutter, chunks [][]byte, fanout int) (cid.Cid, uint64, error) {
	if fanout < 2 {
		fanout = 2
	}
	if len(chunks) == 0 {
		chunks = [][]byte{nil}
	}
	// Level 0: leaves.
	level := make([]Link, 0, len(chunks))
	var total uint64
	for i, chunk := range chunks {
		leaf := &Node{Data: chunk}
		c, err := put.PutNode(leaf)
		if err != nil {
			return cid.Undef, 0, fmt.Errorf("dag: store leaf %d: %w", i, err)
		}
		level = append(level, Link{Size: uint64(len(chunk)), Cid: c})
		total += uint64(len(chunk))
	}
	// Collapse levels until a single root remains.
	for len(level) > 1 {
		next := make([]Link, 0, (len(level)+fanout-1)/fanout)
		for i := 0; i < len(level); i += fanout {
			j := i + fanout
			if j > len(level) {
				j = len(level)
			}
			n := &Node{Links: append([]Link(nil), level[i:j]...)}
			c, err := put.PutNode(n)
			if err != nil {
				return cid.Undef, 0, fmt.Errorf("dag: store interior node: %w", err)
			}
			next = append(next, Link{Size: n.TotalSize(), Cid: c})
		}
		level = next
	}
	return level[0].Cid, total, nil
}

// Reassemble walks the DAG rooted at c depth-first and concatenates leaf
// data, reproducing the original payload.
func Reassemble(get NodeGetter, c cid.Cid) ([]byte, error) {
	root, err := get.GetNode(c)
	if err != nil {
		return nil, err
	}
	if len(root.Links) == 0 {
		return append([]byte(nil), root.Data...), nil
	}
	out := make([]byte, 0, root.TotalSize())
	for _, l := range root.Links {
		part, err := Reassemble(get, l.Cid)
		if err != nil {
			return nil, fmt.Errorf("dag: reassemble link %s: %w", l.Cid, err)
		}
		out = append(out, part...)
	}
	return out, nil
}

// Walk visits every node reachable from c (pre-order), calling fn with each
// CID and node. fn returning an error aborts the walk.
func Walk(get NodeGetter, c cid.Cid, fn func(cid.Cid, *Node) error) error {
	n, err := get.GetNode(c)
	if err != nil {
		return err
	}
	if err := fn(c, n); err != nil {
		return err
	}
	for _, l := range n.Links {
		if err := Walk(get, l.Cid, fn); err != nil {
			return err
		}
	}
	return nil
}
