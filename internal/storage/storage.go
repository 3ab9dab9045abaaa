// Package storage provides the key-value engine beneath the repo's
// stateful layers: the world-state database (with its indexes) and the
// CID-addressed blockstore sit on the KV interface instead of owning a map
// and a global lock. One engine implements it, an LSM tree whose tables
// survive process restarts and whose open cost is its manifest's (see
// lsm.go); a store that needs nothing to survive runs it on a temporary
// directory its Close removes. The engine keeps no log: its owner's own
// append-only log — a peer's block log, an IPFS node's blocks.log — is the
// write-ahead log, replayed above a savepoint the owner keeps in the
// engine. The contract is LevelDB's: point reads, ordered prefix scans,
// and writes that arrive only as batches and are blind — a write reads
// nothing first, so a delete of a key that was never written is a write
// like any other. IterPrefix gives a point-in-time view: a concurrent
// ApplyBatch is seen whole or not at all.
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
// values. The engine copies values neither on ApplyBatch nor on Get:
// callers own the aliasing discipline, exactly as the seed's map-based
// stores did. *Persist is the one implementation; the interface stays so a
// test can wrap the engine beneath a store.
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
	// absent key is not an error. The engine writes a batch into one table:
	// after a crash every write of the batch is on disk or none is.
	ApplyBatch(writes []Write)
	// Close flushes what the engine holds and releases its resources.
	// Operations after Close are undefined; Close is idempotent.
	Close() error
}

// Engine names a KV implementation. Only EnginePersist is left; the type,
// the constant and Config.Engine stay because bench/ sets them, and they go
// with ROADMAP item 4.
type Engine string

// EnginePersist is the LSM engine: sorted memtable, immutable
// block-structured SSTables with bloom filters, a crash-safe manifest and
// background compaction. Tables survive restarts; what the memtable held is
// replayed by the owner from its front log (Config.SyncFront), so recovery
// cost is proportional to recent writes, not total state.
const EnginePersist Engine = "persist"

// Validate refuses every engine name but "" and EnginePersist, as Open
// does: a name that selected a removed engine must fail loudly, not open
// another one. It goes with Engine.
func (e Engine) Validate() error {
	if e != "" && e != EnginePersist {
		return fmt.Errorf("storage: unknown engine %q (valid: %s)", e, EnginePersist)
	}
	return nil
}

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

// Config sizes an engine. The zero value opens one on a fresh temporary
// directory.
type Config struct {
	// Engine must be "" or EnginePersist; any other name is refused. It
	// stays only because bench/ sets it, and goes with ROADMAP item 4.
	Engine Engine
	// Dir is the engine's data directory (created if absent), never
	// removed by the engine. When empty, the engine makes a fresh
	// temporary directory, and the last step of its Close removes it: a
	// store that needs nothing to survive the process takes the durable
	// path all the same.
	Dir string
	// Durability picks the front-log fsync policy the engine reports to
	// its owner (default DurabilityNone; see the Durability constants for
	// the loss windows). DurabilityEnvVar overrides an empty value.
	Durability Durability
	// SyncFront makes the owner's front log durable up to its end. The
	// engine calls it on each flush, after the table is fsynced
	// and before the manifest names it; an error is sticky and stops
	// flushing. It runs on the flusher (or on Close), so it must take no
	// lock a writer holds across ApplyBatch: a writer can stall there
	// waiting for this very flush. nil for an engine no log stands in
	// front of.
	SyncFront func() error
	// MemtableBytes is the engine's memtable flush threshold: once
	// the active memtable holds this many bytes it is flushed to an
	// SSTable (default DefaultMemtableBytes).
	MemtableBytes int64
	// CompactFanout is the engine's per-level run budget: once a
	// level accumulates this many SSTables they are merged into one run on
	// the next level (default DefaultCompactFanout).
	CompactFanout int
}

// DurabilityEnvVar overrides the front-log fsync policy an empty
// Config.Durability selects, so CI can run the whole suite under
// Durability=always without threading a flag through every
// constructor.
const DurabilityEnvVar = "SOCIALCHAIN_STORAGE_DURABILITY"

// envDurability reads DurabilityEnvVar; empty means "no override", unknown
// values are an error (a typo in the CI matrix must not silently change
// the policy under test). Read per call, not cached, so tests can flip it
// with t.Setenv.
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

// Open opens the engine cfg describes (see OpenPersist).
func Open(cfg Config) (KV, error) {
	p, err := OpenPersist(cfg)
	if err != nil {
		return nil, err
	}
	return p, nil
}
