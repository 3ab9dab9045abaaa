// Package storage provides the pluggable key-value engine beneath the
// repo's stateful layers: the world-state database (with its indexes) and
// the CID-addressed blockstore sit on the KV interface instead of owning a
// map and a global lock. Two engines implement it: a single-lock
// map, the in-memory default and the reference every equivalence test
// compares against, and an LSM-tree disk engine whose tables survive
// process restarts and whose open cost is its manifest's (see lsm.go). The
// disk engine keeps no log: its owner's own append-only log — a peer's
// block log, an IPFS node's blocks.log — is the write-ahead log, replayed
// above a savepoint the owner keeps in the engine. The contract is
// LevelDB's: point reads, ordered prefix scans, and writes that arrive
// only as batches and are blind — a write reads nothing first, so a delete
// of a key that was never written is a write like any other. Both engines
// give IterPrefix a point-in-time view: a concurrent ApplyBatch is seen
// whole or not at all.
package storage

import (
	"fmt"
	"os"

	"socialchain/internal/walframe"
)

// Write is one staged mutation inside an ApplyBatch call.
type Write struct {
	Key    string
	Value  []byte
	Delete bool
}

// KV is the engine contract. Keys are ordered byte strings; layered stores
// encode structure (namespaces, versions, sequence numbers) into keys and
// values. Engines copy values neither on ApplyBatch nor on Get: callers own
// the aliasing discipline, exactly as the seed's map-based stores did.
//
// All methods are safe for concurrent use.
type KV interface {
	// Get returns the stored value for key.
	Get(key string) ([]byte, bool)
	// IterPrefix invokes fn for every key beginning with prefix, in
	// ascending key order, over a point-in-time collection of matching
	// entries; fn returning false stops the iteration. fn runs without any
	// engine lock held, so it may call back into the KV.
	IterPrefix(prefix string, fn func(key string, value []byte) bool)
	// ApplyBatch applies a block's writes as one step: an IterPrefix sees
	// all of a batch or none of it. Within the batch, later writes to a
	// key win. Writes are blind: nothing is read first, and deleting an
	// absent key is not an error. The disk engine writes a batch into one
	// table: after a crash every write of the batch is on disk or none is.
	ApplyBatch(writes []Write)
	// Close releases the engine's resources; the disk engine first flushes
	// what it holds. Operations after Close are undefined; Close is
	// idempotent.
	Close() error
}

// Engine names a KV implementation.
type Engine string

const (
	// EngineSingle is the one-map, one-RWMutex engine: every commit
	// excludes every read. The in-memory default and the reference in
	// cross-engine equivalence tests.
	EngineSingle Engine = "single"
	// EnginePersist is the durable disk engine: an LSM tree — sorted
	// memtable, immutable block-structured SSTables with bloom filters, a
	// crash-safe manifest and background compaction. Tables survive
	// restarts; what the memtable held is replayed by the owner from its
	// front log (Config.SyncFront), so recovery cost is proportional to
	// recent writes, not total state.
	EnginePersist Engine = "persist"
)

// Durability is the front-log fsync policy: the window of acknowledged
// writes a power failure (not a mere process kill: appends always reach
// the OS page cache synchronously) can lose from the log a persist engine's
// owner keeps in front of it. The engine resolves it and reports it in
// Stats; the owner applies it to its log through LogPolicy. In every mode
// a flush fsyncs the front log before its table is published, so the
// engine never names a savepoint a power loss can take from the log.
type Durability string

const (
	// DurabilityNone leaves the front log to the page cache; only the
	// engine's flushes and Close fsync it. Loss window on power failure:
	// everything since the last flush. Survives kill -9. The default.
	DurabilityNone Durability = "none"
	// DurabilityBatch fsyncs the front log within 5 ms of the first
	// unsynced append, on a timer; writers never wait. Loss window on
	// power failure: about 5 ms of acknowledged writes. A failed fsync is
	// sticky and fails the next append.
	DurabilityBatch Durability = "batch"
	// DurabilityAlways fsyncs each front-log append before the owner
	// writes the engine: one fsync per block. Loss window: none for
	// acknowledged writes; a failed fsync fails the append.
	DurabilityAlways Durability = "always"
)

// LogPolicy is the front-log fsync policy d selects.
func (d Durability) LogPolicy() walframe.Policy {
	switch d {
	case DurabilityAlways:
		return walframe.SyncAlways
	case DurabilityBatch:
		return walframe.SyncBatch
	}
	return walframe.SyncNone
}

// Config selects and sizes an engine. The zero value opens the in-memory
// single engine.
type Config struct {
	// Engine picks the implementation (default EngineSingle).
	Engine Engine
	// Dir is the persist engine's data directory (created if absent). When
	// empty, it materialises a fresh temporary directory — durable for
	// the life of the process, discarded by the OS afterwards — so the CI
	// engine matrix can force EnginePersist through EngineEnvVar without
	// threading paths into every constructor. Ignored by the in-memory
	// engine.
	Dir string
	// Durability picks the front-log fsync policy the persist engine
	// reports to its owner (default DurabilityNone; see the Durability
	// constants for the loss windows). DurabilityEnvVar overrides an empty
	// value. Ignored by the in-memory engine.
	Durability Durability
	// SyncFront makes the owner's front log durable up to its end. The
	// persist engine calls it on each flush, after the table is fsynced
	// and before the manifest names it; an error is sticky and stops
	// flushing. It runs on the flusher (or on Close), so it must take no
	// lock a writer holds across ApplyBatch: a writer can stall there
	// waiting for this very flush. nil for an engine no log stands in
	// front of. Ignored by the in-memory engine.
	SyncFront func() error
	// MemtableBytes is the persist engine's memtable flush threshold: once
	// the active memtable holds this many bytes it is flushed to an
	// SSTable (default DefaultMemtableBytes).
	MemtableBytes int64
	// CompactFanout is the persist engine's per-level run budget: once a
	// level accumulates this many SSTables they are merged into one run on
	// the next level (default DefaultCompactFanout).
	CompactFanout int
}

// EngineEnvVar overrides the engine an empty Config.Engine selects, so a
// full test run can be pinned to one engine without threading a flag
// through every constructor (the CI matrix runs the suite under both).
const EngineEnvVar = "SOCIALCHAIN_STORAGE_ENGINE"

// DurabilityEnvVar overrides the front-log fsync policy an empty
// Config.Durability selects, so the CI persist leg can run the whole suite
// under Durability=always without threading a flag through every
// constructor.
const DurabilityEnvVar = "SOCIALCHAIN_STORAGE_DURABILITY"

// envEngine reads EngineEnvVar; empty means "no override", unknown values
// are an error (a typo in the CI matrix must not silently change the
// engine under test). Read per call, not cached, so tests can flip it
// with t.Setenv.
func envEngine() (Engine, error) {
	v := os.Getenv(EngineEnvVar)
	switch e := Engine(v); e {
	case "", EngineSingle, EnginePersist:
		return e, nil
	default:
		return "", fmt.Errorf("storage: unknown %s value %q (valid: %s, %s)",
			EngineEnvVar, v, EngineSingle, EnginePersist)
	}
}

// envDurability reads DurabilityEnvVar with the same contract as
// envEngine: empty means "no override", unknown values are an error.
func envDurability() (Durability, error) {
	v := os.Getenv(DurabilityEnvVar)
	switch d := Durability(v); d {
	case "", DurabilityNone, DurabilityBatch, DurabilityAlways:
		return d, nil
	default:
		return "", fmt.Errorf("storage: unknown %s value %q (valid: %s, %s, %s)",
			DurabilityEnvVar, v, DurabilityNone, DurabilityBatch, DurabilityAlways)
	}
}

// ParseDurability validates a durability name from a flag or config file.
// Empty selects the engine default (DurabilityNone).
func ParseDurability(v string) (Durability, error) {
	switch d := Durability(v); d {
	case "", DurabilityNone, DurabilityBatch, DurabilityAlways:
		return d, nil
	default:
		return "", fmt.Errorf("storage: unknown durability %q (valid: %s, %s, %s)",
			v, DurabilityNone, DurabilityBatch, DurabilityAlways)
	}
}

// DefaultEngine returns the engine an empty Config selects: the
// EngineEnvVar override when set, otherwise single. A malformed override
// is an error — the same error Open reports — so callers that size data
// structures off the default engine cannot disagree with the engine Open
// actually refuses to construct.
func DefaultEngine() (Engine, error) {
	e, err := envEngine()
	if err != nil {
		return "", err
	}
	if e == "" {
		e = EngineSingle
	}
	return e, nil
}

// Open constructs the engine described by cfg. Unknown engine names — in
// the config or in the EngineEnvVar override — are an error: silently
// falling back to a default engine would lose data behind a peer that
// thought it was durable.
func Open(cfg Config) (KV, error) {
	engine := cfg.Engine
	if engine == "" {
		e, err := DefaultEngine()
		if err != nil {
			return nil, err
		}
		engine = e
	}
	switch engine {
	case EngineSingle:
		return NewSingle(), nil
	case EnginePersist:
		return OpenPersist(cfg)
	default:
		return nil, fmt.Errorf("storage: unknown engine %q (valid: %s, %s)",
			engine, EngineSingle, EnginePersist)
	}
}
