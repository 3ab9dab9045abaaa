package statedb

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"socialchain/internal/obs"
	"socialchain/internal/storage"
)

// DB is the versioned world state, layered over a pluggable
// storage.KV engine (in memory by default, the LSM persist engine for a
// durable peer), mirroring Fabric's state database (LevelDB/CouchDB).
//
// Namespacing and versions are encoded into the flat key-value space:
// composite keys are "ns\x00key", values carry a fixed 16-byte
// (BlockNum, TxNum) header before the payload. The same engine also holds
// the bookkeeping that describes that state — savepoint, secondary-index
// entries, the committer's block index — under the reserved prefix, so
// one engine batch commits a whole block.
type DB struct {
	kv storage.KV
	// idx maintains the optional secondary indexes (nil when no IndexSpec
	// is configured). See index.go.
	idx *indexer
}

// New returns an empty world state on the default (single) engine. It
// panics if the default engine cannot open — only possible when the
// engine env override is broken, a programming/environment error.
func New() *DB {
	db, err := NewWith(storage.Config{})
	if err != nil {
		panic(err)
	}
	return db
}

// NewWith returns a world state without secondary indexes on the engine
// cfg selects (NewIndexedWith with no specs).
func NewWith(cfg storage.Config) (*DB, error) {
	return NewIndexedWith(cfg)
}

// NewIndexedWith returns a world state on the engine cfg selects,
// maintaining the given secondary indexes. Durable configs place the
// engine under the "db" sub-directory of cfg.Dir and reopen whatever it
// already holds; a cfg.Dir that holds a history/ or index/ engine — the
// three-engine layout older builds wrote — is refused and left untouched.
func NewIndexedWith(cfg storage.Config, specs ...IndexSpec) (*DB, error) {
	if cfg.Dir != "" {
		for _, old := range []string{"history", "index"} {
			if _, err := os.Stat(filepath.Join(cfg.Dir, old)); err == nil {
				return nil, fmt.Errorf("statedb: %s holds a %s/ engine: a data directory in the three-engine layout (db/, history/, index/) an older build wrote; this build keeps history and indexes inside db/ (no migration: start from an empty data directory)", cfg.Dir, old)
			}
		}
		cfg.Dir = filepath.Join(cfg.Dir, "db")
	}
	kv, err := storage.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("statedb: %w", err)
	}
	db := &DB{kv: kv}
	if err := db.BuildIndexes(specs...); err != nil {
		kv.Close() // release the engine opened above
		return nil, err
	}
	return db, nil
}

// Close releases the underlying engine after a final flush.
func (db *DB) Close() error { return db.kv.Close() }

// StorageStats snapshots the LSM persist engine beneath the state store.
// ok is false when the state sits on the in-memory engine, which exposes
// no comparable internals.
func (db *DB) StorageStats() (storage.PersistStats, bool) {
	p, ok := db.kv.(*storage.Persist)
	if !ok {
		return storage.PersistStats{}, false
	}
	return p.Stats(), true
}

// RegisterStorage exports the underlying LSM engine's metrics (sstable
// and level counts, compaction backlog, bloom hit rates, front-log fsync
// requests) on reg under store="state". No-op for engines
// without internals worth exporting; safe on a nil registry.
func (db *DB) RegisterStorage(reg *obs.Registry) {
	if p, ok := db.kv.(*storage.Persist); ok {
		p.Register(reg.With(obs.L("store", "state")))
	}
}

// stateKey builds the composite engine key for ns/key. The NUL separator
// follows the repo-wide "ns\x00key" idiom (chaincode keys never contain
// NUL bytes).
func stateKey(ns, key string) string {
	return ns + "\x00" + key
}

// reservedPrefix marks engine keys that are bookkeeping, not chaincode
// state: chaincode namespaces are never empty, so no composite state key
// can start with NUL. Reserved keys are invisible to Namespaces, Snapshot
// and every namespace iteration. After the prefix, the first byte names
// the owner and the kind:
//
//	savepoint  last applied block (this file)
//	specs      the index spec list the I entries were built for (index.go)
//	I          secondary-index entries (index.go)
//	B, T, L    the ledger's block offsets, transaction locations and chain
//	           record (internal/ledger)
//
// Everything but specs rides each block's one ApplyBlockAt batch, the
// ledger's entries as ReservedWrites, so it is all atomic with the state
// it describes.
const reservedPrefix = "\x00"

// ReservedWrite is one bookkeeping entry carried in a block's state
// batch (ApplyBlockAt) and read back with Reserved. Key is the caller's
// own name inside the reserved keyspace (see reservedPrefix).
type ReservedWrite struct {
	Key   string
	Value []byte
}

// Reserved returns the bookkeeping value stored under key by a
// ReservedWrite.
func (db *DB) Reserved(key string) ([]byte, bool) {
	return db.kv.Get(reservedPrefix + key)
}

// savepointKey stores the number of the last block whose writes were
// applied, updated atomically with each block's state batch (one engine
// ApplyBatch — on the persist engine, always in one table). Recovery replays
// the durable block log strictly after this height.
const savepointKey = reservedPrefix + "savepoint"

// Savepoint returns the last block height recorded by ApplyBlockAt, and
// whether one has been recorded at all.
func (db *DB) Savepoint() (uint64, bool) {
	buf, ok := db.kv.Get(savepointKey)
	if !ok || len(buf) != 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(buf), true
}

// splitStateKey undoes stateKey.
func splitStateKey(composite string) (ns, key string) {
	if i := strings.IndexByte(composite, 0); i >= 0 {
		return composite[:i], composite[i+1:]
	}
	return composite, ""
}

// versionHeaderLen is the encoded-value prefix carrying the version.
const versionHeaderLen = 16

// encodeValue prepends the version header to a fresh copy of value, giving
// the engine an owned buffer (copy-on-write, as the seed's DB did).
func encodeValue(value []byte, v Version) []byte {
	buf := make([]byte, versionHeaderLen+len(value))
	binary.BigEndian.PutUint64(buf[0:8], v.BlockNum)
	binary.BigEndian.PutUint64(buf[8:16], v.TxNum)
	copy(buf[versionHeaderLen:], value)
	return buf
}

// decodeValue splits a stored buffer into its version and payload; the
// payload aliases the stored buffer, which is never mutated in place.
func decodeValue(buf []byte) VersionedValue {
	return VersionedValue{
		Value: buf[versionHeaderLen:],
		Version: Version{
			BlockNum: binary.BigEndian.Uint64(buf[0:8]),
			TxNum:    binary.BigEndian.Uint64(buf[8:16]),
		},
	}
}

// GetState returns the value of key in ns.
func (db *DB) GetState(ns, key string) (VersionedValue, bool) {
	buf, ok := db.kv.Get(stateKey(ns, key))
	if !ok {
		return VersionedValue{}, false
	}
	return decodeValue(buf), true
}

// GetVersion returns only the version of a key.
func (db *DB) GetVersion(ns, key string) (Version, bool) {
	vv, ok := db.GetState(ns, key)
	return vv.Version, ok
}

// TxUpdate pairs one transaction's update batch with its commit version,
// the unit of the block-level apply below.
type TxUpdate struct {
	Batch   *UpdateBatch
	Version Version
}

// ApplyBlockAt commits every valid transaction of one block in a single
// engine batch, the world state's one write entry point. Per-transaction
// batches merge in block order (a later transaction's write to the same
// key wins), each surviving write keeps the version of the transaction
// that produced it, and the secondary-index mutations are derived once
// against pre-block state — intermediate intra-block values never hit the
// engine, so old-value reads for index maintenance stay correct. The same
// batch records height under the reserved savepoint key and carries the
// committer's reserved entries: on a durable engine it lands in one table,
// so after a crash the state reflects the block, its bookkeeping and the
// savepoint, or none of them — the invariant that lets recovery replay the
// block log from the savepoint without double-applying. An empty update
// set still commits: the savepoint must advance past blocks that wrote
// nothing.
func (db *DB) ApplyBlockAt(updates []TxUpdate, height uint64, reserved ...ReservedWrite) {
	merged := NewUpdateBatch()
	versions := make(map[string]Version)
	for _, u := range updates {
		for ns, kvs := range u.Batch.updates {
			for key, w := range kvs {
				merged.stage(w)
				versions[stateKey(ns, key)] = u.Version
			}
		}
	}
	writes := make([]storage.Write, 0, merged.Len()+1+len(reserved))
	for ns, kvs := range merged.updates {
		for key, w := range kvs {
			sk := stateKey(ns, key)
			if w.IsDelete {
				writes = append(writes, storage.Write{Key: sk, Delete: true})
				continue
			}
			writes = append(writes, storage.Write{Key: sk, Value: encodeValue(w.Value, versions[sk])})
		}
	}
	if db.idx != nil && merged.Len() > 0 {
		// Old values are read here, before the batch below lands.
		writes = append(writes, db.idx.batchWrites(db, merged)...)
	}
	for _, r := range reserved {
		writes = append(writes, storage.Write{Key: reservedPrefix + r.Key, Value: r.Value})
	}
	writes = append(writes, storage.Write{Key: savepointKey, Value: binary.BigEndian.AppendUint64(nil, height)})
	db.kv.ApplyBatch(writes)
}

// iterNamespace walks ns in ascending key order, calling fn with the bare
// (un-prefixed) key; fn returning false stops the walk. The empty
// namespace holds nothing: its prefix would be the reserved one.
func (db *DB) iterNamespace(ns string, fn func(key string, vv VersionedValue) bool) {
	if ns == "" {
		return
	}
	skip := len(ns) + 1
	db.kv.IterPrefix(stateKey(ns, ""), func(composite string, buf []byte) bool {
		return fn(composite[skip:], decodeValue(buf))
	})
}

// GetStateRange returns keys in [startKey, endKey) of ns in sorted order.
// Empty startKey means from the beginning; empty endKey means to the end.
func (db *DB) GetStateRange(ns, startKey, endKey string) []KV {
	var out []KV
	db.iterNamespace(ns, func(key string, vv VersionedValue) bool {
		if key < startKey {
			return true
		}
		if endKey != "" && key >= endKey {
			return false // keys arrive sorted; nothing further can match
		}
		out = append(out, KV{Namespace: ns, Key: key, Value: append([]byte(nil), vv.Value...), Version: vv.Version})
		return true
	})
	return out
}

// Namespaces lists the namespaces present, sorted. Reserved bookkeeping
// keys (the savepoint) are not state and are skipped.
func (db *DB) Namespaces() []string {
	var out []string
	db.kv.IterPrefix("", func(composite string, _ []byte) bool {
		if strings.HasPrefix(composite, reservedPrefix) {
			return true
		}
		ns, _ := splitStateKey(composite)
		if len(out) == 0 || out[len(out)-1] != ns {
			out = append(out, ns)
		}
		return true
	})
	return out
}
