package statedb

import (
	"encoding/binary"
	"fmt"
	"strings"

	"socialchain/internal/obs"
	"socialchain/internal/storage"
)

// DB is the in-memory versioned world state, layered over a pluggable
// storage.KV engine. With the default sharded engine, reads from
// concurrent clients proceed against independent lock stripes while block
// commits take each stripe lock once — mirroring Fabric's state database
// semantics (LevelDB/CouchDB) without the seed's single global RWMutex.
//
// Namespacing and versions are encoded into the flat key-value space:
// composite keys are "ns\x00key", values carry a fixed 16-byte
// (BlockNum, TxNum) header before the payload.
type DB struct {
	kv storage.KV
	// idx maintains the optional secondary indexes on a dedicated engine
	// (nil when no IndexSpec is configured). See index.go.
	idx *indexer
}

// New returns an empty world state on the default (sharded) engine. It
// panics if the default engine cannot open — only possible when the
// engine env override is broken, a programming/environment error.
func New() *DB {
	db, err := NewWith(storage.Config{})
	if err != nil {
		panic(err)
	}
	return db
}

// NewWith returns a world state on the engine cfg selects. Durable
// configs place the state engine under the "db" sub-directory of
// cfg.Dir (history and indexes get siblings), and reopen whatever state
// that directory already holds.
func NewWith(cfg storage.Config) (*DB, error) {
	kv, err := storage.Open(cfg.Sub("db"))
	if err != nil {
		return nil, fmt.Errorf("statedb: %w", err)
	}
	return &DB{kv: kv}, nil
}

// NewIndexedWith returns a world state on the engine cfg selects,
// maintaining the given secondary indexes (held on a second engine of the
// same configuration, under the "index" sub-directory for durable
// configs). The index engine carries its own savepoint; an open that finds
// it behind the state's (a crash between a block's state batch and its
// index batch) or finds a different spec list rebuilds the indexes from
// the recovered state, so the two can never stay out of sync.
func NewIndexedWith(cfg storage.Config, specs ...IndexSpec) (*DB, error) {
	db, err := NewWith(cfg)
	if err != nil {
		return nil, err
	}
	if err := db.BuildIndexes(cfg, specs...); err != nil {
		db.Close() // release the already-open state engine
		return nil, err
	}
	return db, nil
}

// Close releases the underlying engines after a final flush.
func (db *DB) Close() error {
	err := db.kv.Close()
	if db.idx != nil {
		if ierr := db.idx.kv.Close(); err == nil {
			err = ierr
		}
	}
	return err
}

// Sync flushes the underlying engines to stable storage.
func (db *DB) Sync() error {
	err := db.kv.Sync()
	if db.idx != nil {
		if ierr := db.idx.kv.Sync(); err == nil {
			err = ierr
		}
	}
	return err
}

// StorageStats snapshots the LSM persist engine beneath the state store.
// ok is false when the state sits on a non-LSM engine (in-memory or the
// map-plus-WAL baseline), which expose no comparable internals.
func (db *DB) StorageStats() (storage.PersistStats, bool) {
	p, ok := db.kv.(*storage.Persist)
	if !ok {
		return storage.PersistStats{}, false
	}
	return p.Stats(), true
}

// indexEngine returns the LSM engine beneath the secondary indexes, if the
// world state maintains any on one.
func (db *DB) indexEngine() (*storage.Persist, bool) {
	if db.idx == nil {
		return nil, false
	}
	p, ok := db.idx.kv.(*storage.Persist)
	return p, ok
}

// OpenWALRecords reports how many WAL records the state and index engines
// replayed when they opened: 0 after a clean stop (storage.Persist.Close
// is a checkpoint) and on engines without a WAL.
func (db *DB) OpenWALRecords() int64 {
	st, _ := db.StorageStats()
	n := st.OpenWALRecords
	if p, ok := db.indexEngine(); ok {
		n += p.Stats().OpenWALRecords
	}
	return n
}

// RegisterStorage exports the underlying LSM engines' metrics (sstable
// and level counts, compaction backlog, bloom hit rates, fsync totals,
// what the open replayed) on reg, the world state under store="state" and
// the index engine under store="index". No-op for engines without
// internals worth exporting; safe on a nil registry.
func (db *DB) RegisterStorage(reg *obs.Registry) {
	if p, ok := db.kv.(*storage.Persist); ok {
		p.Register(reg.With(obs.L("store", "state")))
	}
	if p, ok := db.indexEngine(); ok {
		p.Register(reg.With(obs.L("store", "index")))
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
// and every namespace iteration. Two owners write here: statedb itself
// (the savepoint) and the committer's ledger, whose block index and
// chain counters ride each block's batch as ReservedWrites so they are
// atomic with the state they describe.
const reservedPrefix = "\x00"

// ReservedWrite is one bookkeeping entry carried in a block's state
// batch (ApplyBlockAt) and read back with Reserved. Key is the caller's
// own name inside the reserved keyspace; it must not be "savepoint".
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
// ApplyBatch — on the persist engine, one WAL record). Recovery replays
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

// ApplyUpdates commits a batch at the given block height. TxNum in each
// write's version is assigned from the batch entries' staged versions; the
// caller provides the per-transaction version. The engine applies the
// whole batch with one lock acquisition per touched stripe. Secondary
// index mutations are derived from the same batch (old values are read
// before it lands) and applied engine-batch-atomically right after the
// state writes.
func (db *DB) ApplyUpdates(batch *UpdateBatch, v Version) {
	var idxWrites []storage.Write
	if db.idx != nil {
		idxWrites = db.idx.batchWrites(db, batch)
	}
	writes := make([]storage.Write, 0, batch.Len())
	for ns, kvs := range batch.updates {
		for key, w := range kvs {
			if w.IsDelete {
				writes = append(writes, storage.Write{Key: stateKey(ns, key), Delete: true})
				continue
			}
			writes = append(writes, storage.Write{Key: stateKey(ns, key), Value: encodeValue(w.Value, v)})
		}
	}
	db.kv.ApplyBatch(writes)
	if len(idxWrites) > 0 {
		db.idx.kv.ApplyBatch(idxWrites)
	}
}

// TxUpdate pairs one transaction's update batch with its commit version,
// the unit of the block-level apply below.
type TxUpdate struct {
	Batch   *UpdateBatch
	Version Version
}

// ApplyBlock commits every valid transaction of one block in a single
// engine pass: per-transaction batches are merged in block order (a later
// transaction's write to the same key wins, matching sequential
// ApplyUpdates), each surviving write keeps the version of the
// transaction that produced it, and the secondary-index mutations are
// derived once against pre-block state — intermediate intra-block values
// never hit the engine, so old-value reads for index maintenance stay
// correct. One ApplyBatch per engine (state, then indexes) replaces the
// per-transaction lock round-trips of the serial commit path.
func (db *DB) ApplyBlock(updates []TxUpdate) {
	if len(updates) == 0 {
		return
	}
	// Same code path as ApplyBlockAt (minus the savepoint) so the two
	// entry points cannot drift behaviorally.
	db.applyBlock(updates, nil, nil)
}

// ApplyBlockAt is ApplyBlock for committers that track recovery state: it
// additionally records height under the reserved savepoint key, INSIDE
// the same engine batch as the block's writes. On a durable engine the
// whole batch is one atomic WAL record, so after a crash the state either
// reflects the block and the savepoint or neither — the invariant that
// lets recovery replay the block log from the savepoint without
// double-applying. Unlike ApplyBlock, an empty update set still commits
// (the savepoint must advance past blocks that wrote nothing). reserved
// entries land in the same batch, under the reserved prefix.
func (db *DB) ApplyBlockAt(updates []TxUpdate, height uint64, reserved ...ReservedWrite) {
	sp := make([]byte, 8)
	binary.BigEndian.PutUint64(sp, height)
	db.applyBlock(updates, sp, reserved)
}

// applyBlock merges, versions and lands one block's updates, optionally
// with a savepoint write (and the committer's reserved entries) riding in
// the same engine batch.
func (db *DB) applyBlock(updates []TxUpdate, savepoint []byte, reserved []ReservedWrite) {
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
	var idxWrites []storage.Write
	if db.idx != nil && merged.Len() > 0 {
		idxWrites = db.idx.batchWrites(db, merged)
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
	for _, r := range reserved {
		writes = append(writes, storage.Write{Key: reservedPrefix + r.Key, Value: r.Value})
	}
	if savepoint != nil {
		writes = append(writes, storage.Write{Key: savepointKey, Value: savepoint})
		if db.idx != nil {
			// The index engine records the same height in its own batch,
			// so the next open can tell the two stores are in step.
			idxWrites = append(idxWrites, storage.Write{Key: indexSavepointKey, Value: savepoint})
		}
	}
	db.kv.ApplyBatch(writes)
	if len(idxWrites) > 0 {
		db.idx.kv.ApplyBatch(idxWrites)
	}
}

// iterNamespace walks ns in ascending key order, calling fn with the bare
// (un-prefixed) key; fn returning false stops the walk.
func (db *DB) iterNamespace(ns, prefix string, fn func(key string, vv VersionedValue) bool) {
	nsPrefix := stateKey(ns, prefix)
	skip := len(ns) + 1
	db.kv.IterPrefix(nsPrefix, func(composite string, buf []byte) bool {
		return fn(composite[skip:], decodeValue(buf))
	})
}

// GetStateRange returns keys in [startKey, endKey) of ns in sorted order.
// Empty startKey means from the beginning; empty endKey means to the end.
func (db *DB) GetStateRange(ns, startKey, endKey string) []KV {
	var out []KV
	db.iterNamespace(ns, "", func(key string, vv VersionedValue) bool {
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

// GetStateByPrefix returns all keys of ns beginning with prefix, sorted.
func (db *DB) GetStateByPrefix(ns, prefix string) []KV {
	var out []KV
	db.iterNamespace(ns, prefix, func(key string, vv VersionedValue) bool {
		out = append(out, KV{Namespace: ns, Key: key, Value: append([]byte(nil), vv.Value...), Version: vv.Version})
		return true
	})
	return out
}

// Keys returns the number of keys stored in ns.
func (db *DB) Keys(ns string) int {
	n := 0
	db.iterNamespace(ns, "", func(string, VersionedValue) bool {
		n++
		return true
	})
	return n
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
