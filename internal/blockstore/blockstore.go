// Package blockstore provides CID-addressed block storage for the off-chain
// store, with pin tracking and mark-and-sweep garbage collection. It is the
// persistence layer beneath the DAG and bitswap, standing in for IPFS's
// flatfs datastore. Blocks live in a pluggable storage.KV engine keyed by
// the CID's binary form.
//
// The store keeps no running byte total: SizeBytes is a scan of every
// block's value, computed when somebody asks. The one caller outside tests
// is socialchaind's exit summary; opening a store reads no block.
package blockstore

import (
	"errors"
	"fmt"

	"socialchain/internal/cid"
	"socialchain/internal/storage"
)

// ErrNotFound is returned when a block is absent.
var ErrNotFound = errors.New("blockstore: block not found")

// Block is a unit of stored content, addressed by the CID of its bytes.
type Block struct {
	Cid  cid.Cid
	Data []byte
}

// NewBlock constructs a raw block, hashing data.
func NewBlock(data []byte) Block {
	return Block{Cid: cid.SumRaw(data), Data: data}
}

// Blockstore is the storage interface used throughout the off-chain store.
type Blockstore interface {
	Put(b Block) error
	Get(c cid.Cid) (Block, error)
	Has(c cid.Cid) bool
	Delete(c cid.Cid) error
	AllKeys() []cid.Cid
	Len() int
	SizeBytes() uint64
	// Sync flushes to stable storage; Close releases the store. No-ops for
	// the in-memory engine.
	Sync() error
	Close() error
}

// Mem is a Blockstore safe for concurrent use, layered over a storage.KV
// engine — in-memory on the default engine, disk-backed (and
// restart-surviving) on the persist engine.
type Mem struct {
	kv storage.KV
}

// NewMem returns an empty blockstore on the default (single) engine. It
// panics if the default engine cannot open (broken env override).
func NewMem() *Mem {
	m, err := NewMemWith(storage.Config{})
	if err != nil {
		panic(err)
	}
	return m
}

// NewMemWith returns a blockstore on the engine cfg selects, reopening
// whatever a durable config's directory already holds.
func NewMemWith(cfg storage.Config) (*Mem, error) {
	kv, err := storage.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	return &Mem{kv: kv}, nil
}

// Sync implements Blockstore.
func (m *Mem) Sync() error { return m.kv.Sync() }

// Close implements Blockstore.
func (m *Mem) Close() error { return m.kv.Close() }

// blockKey is the engine key of a block: the CID's binary form, so the
// engine's lexical order is the CIDs' binary order and AllKeys is
// deterministic.
func blockKey(c cid.Cid) string { return string(c.Bytes()) }

// Put implements Blockstore. It verifies the block's CID matches its bytes,
// preserving the content-addressing invariant. Re-putting an existing
// block is idempotent.
func (m *Mem) Put(b Block) error {
	if !b.Cid.Defined() {
		return errors.New("blockstore: undefined cid")
	}
	if err := verifyBlock(b); err != nil {
		return err
	}
	key := blockKey(b.Cid)
	if _, ok := m.kv.Get(key); ok {
		return nil // duplicate adds are the common case; skip the copy
	}
	m.kv.Put(key, append([]byte(nil), b.Data...))
	return nil
}

// verifyBlock recomputes the hash under the block's own codec.
func verifyBlock(b Block) error {
	var want cid.Cid
	switch b.Cid.Codec() {
	case cid.CodecRaw:
		want = cid.SumRaw(b.Data)
	case cid.CodecDagNode:
		want = cid.SumDagNode(b.Data)
	default:
		return fmt.Errorf("blockstore: unknown codec %#x", b.Cid.Codec())
	}
	if !want.Equals(b.Cid) {
		return fmt.Errorf("blockstore: block bytes do not match cid %s", b.Cid)
	}
	return nil
}

// Get implements Blockstore.
func (m *Mem) Get(c cid.Cid) (Block, error) {
	d, ok := m.kv.Get(blockKey(c))
	if !ok {
		return Block{}, fmt.Errorf("%w: %s", ErrNotFound, c)
	}
	return Block{Cid: c, Data: append([]byte(nil), d...)}, nil
}

// Has implements Blockstore.
func (m *Mem) Has(c cid.Cid) bool {
	_, ok := m.kv.Get(blockKey(c))
	return ok
}

// Delete implements Blockstore. Deleting an absent block is a no-op.
func (m *Mem) Delete(c cid.Cid) error {
	m.kv.Delete(blockKey(c))
	return nil
}

// AllKeys implements Blockstore, returning keys in deterministic order.
func (m *Mem) AllKeys() []cid.Cid {
	var keys []cid.Cid
	m.kv.IterPrefix("", func(key string, _ []byte) bool {
		c, err := cid.Cast([]byte(key))
		if err != nil {
			// Keys are only ever written by Put from a defined CID.
			panic("blockstore: undecodable block key: " + err.Error())
		}
		keys = append(keys, c)
		return true
	})
	return keys
}

// Len implements Blockstore.
func (m *Mem) Len() int {
	return m.kv.Len()
}

// SizeBytes implements Blockstore: the stored blocks' total size, read off
// a scan of the store — O(stored bytes) on a durable engine.
func (m *Mem) SizeBytes() uint64 {
	var total uint64
	m.kv.IterPrefix("", func(_ string, v []byte) bool {
		total += uint64(len(v))
		return true
	})
	return total
}
