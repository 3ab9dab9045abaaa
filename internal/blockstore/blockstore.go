// Package blockstore provides CID-addressed block storage for the off-chain
// store, beneath the DAG and bitswap, in the shape a peer keeps its chain
// (internal/ledger): each block written once to an append-only log, found
// through an index in one storage engine. A durable store is
//
//	blocks.log   one walframe frame per block: [uvarint cid length][cid][bytes]
//	db/          persist engine: cid bytes -> frame offset and length, and the
//	             savepoint "\x00end" -> the log offset indexed frames end by
//
// A block's entry and the savepoint are one ApplyBatch after the frame's
// append, so the index never names a frame the log lacks; the log is the
// index engine's front log, fsynced by each of its flushes before a table
// can name a savepoint in it (storage.Config.SyncFront). Open recovers
// the log from the savepoint: whole frames past it are indexed, a torn
// tail is cut, a log shorter than its savepoint (walframe.ErrLost) refuses
// to open. Beyond the flushes, the log fsyncs under the policy the
// engine's resolved durability selects: each frame before its batch under
// storage.DurabilityAlways. Without a directory the log is an unlinked
// temporary file and the index runs on the single engine: one Put and Get
// path for every store.
package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"socialchain/internal/cid"
	"socialchain/internal/codec"
	"socialchain/internal/storage"
	"socialchain/internal/walframe"
)

// ErrNotFound is returned when a block is absent.
var ErrNotFound = errors.New("blockstore: block not found")

// Block is a unit of stored content: bytes and the CID they hash to. Only
// the hashing constructors (NewBlock, NewDagBlock, Check) and a Store's
// reads make one, so a Put never hashes again.
type Block struct {
	cid  cid.Cid
	data []byte
}

// Cid returns the block's content identifier.
func (b Block) Cid() cid.Cid { return b.cid }

// Data returns the block's bytes.
func (b Block) Data() []byte { return b.data }

// NewBlock names data as a raw leaf block, hashing it.
func NewBlock(data []byte) Block { return Block{cid: cid.SumRaw(data), data: data} }

// NewDagBlock names an encoded DAG node, hashing it.
func NewDagBlock(encoded []byte) Block {
	return Block{cid: cid.SumDagNode(encoded), data: encoded}
}

// Check returns data as the block c names if it hashes to c under c's
// codec: the constructor for bytes someone else claims are c (a bitswap
// reply).
func Check(c cid.Cid, data []byte) (Block, error) {
	var got cid.Cid
	switch c.Codec() {
	case cid.CodecRaw:
		got = cid.SumRaw(data)
	case cid.CodecDagNode:
		got = cid.SumDagNode(data)
	default:
		return Block{}, fmt.Errorf("blockstore: unknown codec %#x", c.Codec())
	}
	if !got.Equals(c) {
		return Block{}, fmt.Errorf("blockstore: block bytes do not match cid %s", c)
	}
	return Block{cid: c, data: data}, nil
}

const (
	logName = "blocks.log"
	dbName  = "db"
	endKey  = "\x00end" // CID keys start with their version varint (1)
	locLen  = 8 + 4     // frame offset, frame length
)

// Store is a node's blocks: one log, indexed by CID. Safe for concurrent
// use.
type Store struct {
	mu   sync.Mutex // orders an append with its index batch
	log  *walframe.Log
	kv   storage.KV
	path string
}

// Open opens the store in dir (created if absent); with dir empty, on an
// unlinked temporary file and the in-memory engine. A directory in the
// blocks/+pins/ layout older builds wrote is refused and left untouched:
// there is no migration.
func Open(dir string) (*Store, error) {
	cfg := storage.Config{Engine: storage.EngineSingle}
	if dir != "" {
		for _, old := range []string{"blocks", "pins"} {
			if _, err := os.Stat(filepath.Join(dir, old)); err == nil {
				return nil, fmt.Errorf("blockstore: %s holds %s/, the blocks/+pins/ layout older builds wrote; this build reads %s + %s/ only (no migration: start from an empty data directory)", dir, old, logName, dbName)
			}
		}
		cfg = storage.Config{Engine: storage.EnginePersist, Dir: filepath.Join(dir, dbName)}
	}
	s := &Store{}
	// s.log is set before the first ApplyBatch, so before any flush.
	cfg.SyncFront = func() error { return s.log.Sync() }
	kv, err := storage.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	s.kv = kv
	policy := walframe.SyncNone
	if p, ok := kv.(*storage.Persist); ok {
		policy = p.Stats().Durability.LogPolicy()
	}
	var from int64
	if v, ok := kv.Get(endKey); ok {
		from = int64(binary.BigEndian.Uint64(v))
	}
	var found []storage.Write
	open := func(path string) (err error) {
		s.path = path
		s.log, err = walframe.OpenLog(path, from, policy, func(off int64, payload []byte) error {
			key, _, err := splitFrame(payload)
			if err != nil {
				return fmt.Errorf("blockstore: %s frame at offset %d: %w", path, off, err)
			}
			found = append(found, storage.Write{Key: string(key), Value: loc(off, walframe.HeaderLen+len(payload))})
			return nil
		})
		return err
	}
	if dir == "" {
		err = walframe.OpenTemp("socialchain-blocks-*.log", open)
	} else {
		err = open(filepath.Join(dir, logName)) // the engine created dir with db/
	}
	if err != nil {
		kv.Close()
		return nil, err
	}
	if len(found) > 0 {
		kv.ApplyBatch(append(found, s.savepoint()))
	}
	return s, nil
}

// loc encodes an index entry.
func loc(off int64, n int) []byte {
	v := make([]byte, locLen)
	binary.BigEndian.PutUint64(v, uint64(off))
	binary.BigEndian.PutUint32(v[8:], uint32(n))
	return v
}

// savepoint is the index write recording the log's end.
func (s *Store) savepoint() storage.Write {
	return storage.Write{Key: endKey, Value: binary.BigEndian.AppendUint64(nil, uint64(s.log.End()))}
}

// splitFrame splits a frame payload into its CID bytes and block bytes.
func splitFrame(payload []byte) (key, data []byte, err error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || n > uint64(len(payload)-w) {
		return nil, nil, errors.New("undecodable cid length")
	}
	return payload[w : w+int(n)], payload[w+int(n):], nil
}

// Put stores b unless its CID is already stored, appending and indexing
// the frame under one lock.
func (s *Store) Put(b Block) error {
	if !b.cid.Defined() {
		return errors.New("blockstore: undefined cid")
	}
	key := b.cid.Bytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.kv.Get(string(key)); ok {
		return nil // duplicate adds are the common case
	}
	var off int64
	var n int
	var err error
	codec.Scratch(func(frame []byte) []byte {
		frame = append(frame, make([]byte, walframe.HeaderLen)...)
		frame = binary.AppendUvarint(frame, uint64(len(key)))
		frame = append(append(frame, key...), b.data...)
		walframe.Seal(frame)
		off, err = s.log.Append(frame)
		n = len(frame)
		return frame
	})
	if err != nil {
		return fmt.Errorf("blockstore: %w", err)
	}
	s.kv.ApplyBatch([]storage.Write{{Key: string(key), Value: loc(off, n)}, s.savepoint()})
	return nil
}

// Get reads block c: one index lookup and one read of its frame. A frame
// that fails its CRC or names another CID is the disk changing under the
// process, and Get panics rather than serve possibly-wrong bytes, as the
// storage engine does on its own reads.
func (s *Store) Get(c cid.Cid) (Block, error) {
	key := c.Bytes()
	v, ok := s.kv.Get(string(key))
	if !ok || len(v) != locLen {
		return Block{}, fmt.Errorf("%w: %s", ErrNotFound, c)
	}
	off := int64(binary.BigEndian.Uint64(v))
	frame := make([]byte, binary.BigEndian.Uint32(v[8:]))
	_, err := s.log.ReadAt(frame, off)
	if errors.Is(err, os.ErrClosed) {
		return Block{}, fmt.Errorf("blockstore: get %s after Close", c)
	}
	var payload, got, data []byte
	if err == nil {
		payload, _, err = walframe.Next(frame, 0)
	}
	if err == nil {
		got, data, err = splitFrame(payload)
	}
	if err == nil && !bytes.Equal(got, key) {
		err = errors.New("frame holds another cid")
	}
	if err != nil {
		panic(fmt.Sprintf("blockstore: %s block %s at offset %d: %v (data integrity failure; refusing to serve possibly-wrong bytes)", s.path, c, off, err))
	}
	return Block{cid: c, data: data}, nil
}

// Has reports whether block c is stored: an index lookup.
func (s *Store) Has(c cid.Cid) bool {
	_, ok := s.kv.Get(string(c.Bytes()))
	return ok
}

// Len returns the number of stored blocks: one scan of the index.
func (s *Store) Len() int {
	n := 0
	s.kv.IterPrefix("", func(key string, _ []byte) bool {
		if key != endKey {
			n++
		}
		return true
	})
	return n
}

// SizeBytes returns the size of the log: the stored blocks with their
// frame headers and CIDs.
func (s *Store) SizeBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(s.log.End())
}

// Close closes the index, whose checkpoint syncs the log, then the log.
// Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.kv.Close(), s.log.Close())
}
