// Package statedb implements the world-state database of the permissioned
// blockchain: a versioned key-value store (versions are block/tx heights,
// as in Fabric) with range scans, JSON selector queries in the style of
// CouchDB rich queries, and read/write sets for MVCC validation of
// transactions.
package statedb

import "fmt"

// Version is the commit height at which a key was last written: the block
// number and the transaction's position within that block. MVCC validation
// compares versions observed at simulation time against commit time.
type Version struct {
	BlockNum uint64 `json:"block_num"`
	TxNum    uint64 `json:"tx_num"`
}

// Compare orders versions lexicographically by (BlockNum, TxNum).
func (v Version) Compare(o Version) int {
	switch {
	case v.BlockNum < o.BlockNum:
		return -1
	case v.BlockNum > o.BlockNum:
		return 1
	case v.TxNum < o.TxNum:
		return -1
	case v.TxNum > o.TxNum:
		return 1
	default:
		return 0
	}
}

// String renders "block:tx".
func (v Version) String() string { return fmt.Sprintf("%d:%d", v.BlockNum, v.TxNum) }

// VersionedValue is a stored value together with its commit version.
type VersionedValue struct {
	Value   []byte
	Version Version
}

// KV is one key-value result of a scan or query.
type KV struct {
	Namespace string
	Key       string
	Value     []byte
	Version   Version
}
