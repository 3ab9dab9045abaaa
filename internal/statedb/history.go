package statedb

import (
	"fmt"
	"strings"
	"time"

	"socialchain/internal/codec"
	"socialchain/internal/obs"
	"socialchain/internal/storage"
)

// HistEntry is one historical update to a key, underpinning the paper's
// provenance feature: an immutable record of every change with its
// transaction and timestamp.
type HistEntry struct {
	TxID      string    `json:"tx_id"`
	Value     []byte    `json:"value,omitempty"`
	IsDelete  bool      `json:"is_delete,omitempty"`
	Version   Version   `json:"version"`
	Timestamp time.Time `json:"timestamp"`
}

// AppendTo appends the entry's canonical encoding (internal/codec): tx ID,
// value, is-delete, version, timestamp.
func (e HistEntry) AppendTo(b []byte) []byte {
	b = codec.AppendString(b, e.TxID)
	b = codec.AppendBytes(b, e.Value)
	b = codec.AppendBool(b, e.IsDelete)
	b = codec.AppendUvarint(b, e.Version.BlockNum)
	b = codec.AppendUvarint(b, e.Version.TxNum)
	return codec.AppendTime(b, e.Timestamp)
}

// histEntryOverhead is what AppendTo adds around the tx ID and a value of
// up to 2 MiB: two length prefixes, a flag, two varints and the timestamp.
const histEntryOverhead = 2*3 + 1 + 2*10 + 8

// DecodeHistEntry parses a whole entry encoded with AppendTo.
func DecodeHistEntry(b []byte) (HistEntry, error) {
	r := codec.NewReader(b)
	e := HistEntry{TxID: r.String(), Value: r.Bytes(), IsDelete: r.Bool()}
	e.Version = Version{BlockNum: r.Uvarint(), TxNum: r.Uvarint()}
	e.Timestamp = r.Time()
	return e, r.Done()
}

// HistoryDB records the full update history of every key. It is an
// append-only index over a storage.KV engine: each update lands under
// "ns\x00key\x00<block><tx>" where the suffix is the entry's commit
// version in fixed-width hex, so a key's history is one sorted prefix
// scan in commit order and appends never read-modify-write (concurrent
// recording from different committers cannot lose entries). Keying by
// commit version — rather than an in-process counter — also makes
// recording idempotent: crash-recovery replay of a block overwrites the
// block's entries with identical bytes instead of duplicating them.
type HistoryDB struct {
	kv storage.KV
}

// NewHistoryDB returns an empty history database on the default engine.
// It panics if the default engine cannot open (broken env override).
func NewHistoryDB() *HistoryDB {
	h, err := NewHistoryDBWith(storage.Config{})
	if err != nil {
		panic(err)
	}
	return h
}

// NewHistoryDBWith returns a history database on the engine cfg selects.
// Durable configs place it under the "history" sub-directory of cfg.Dir,
// beside the world state's "db", and reopen whatever it already holds.
func NewHistoryDBWith(cfg storage.Config) (*HistoryDB, error) {
	cfg = cfg.Sub("history")
	if cfg.MemtableBytes <= 0 && cfg.SegmentBytes <= 0 { // SegmentBytes: the persist engine's alias for it
		cfg.MemtableBytes = histMemtableBytes
	}
	kv, err := storage.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("statedb: history: %w", err)
	}
	switch v, ok := kv.Get(histFormatKey); {
	case ok && len(v) == 1 && v[0] == histFormat:
	case !ok && kv.Len() == 0:
		kv.Put(histFormatKey, []byte{histFormat})
	default:
		kv.Close() // nothing was written through this handle
		return nil, fmt.Errorf("statedb: history store under %q is not in entry format %d: written by an older build (no migration; start from an empty data directory)", cfg.Dir, histFormat)
	}
	return &HistoryDB{kv: kv}, nil
}

// histMemtableBytes is the history engine's memtable size unless the
// config names one (by either of its names): a quarter of the state
// engine's default. Commits only ever append here and nothing on the
// commit path reads it back, so a large memtable buys no read hits — it
// only keeps up to that many bytes of entries per peer on the heap (and in
// the WAL a reopen replays) until the next flush.
const histMemtableBytes = 1 << 20

// histFormat is the entry layout AppendTo writes, recorded once per store
// under histFormatKey — a key no "ns\x00key\x00version" composite equals.
// Entries themselves carry no tag; a store of JSON entries has no marker.
const (
	histFormat    = 1
	histFormatKey = "\x00format"
)

// Close releases the underlying engine after a final flush.
func (h *HistoryDB) Close() error { return h.kv.Close() }

// Sync flushes the underlying engine to stable storage.
func (h *HistoryDB) Sync() error { return h.kv.Sync() }

// StorageStats snapshots the LSM persist engine beneath the history
// store; ok is false for engines without comparable internals.
func (h *HistoryDB) StorageStats() (storage.PersistStats, bool) {
	p, ok := h.kv.(*storage.Persist)
	if !ok {
		return storage.PersistStats{}, false
	}
	return p.Stats(), true
}

// RegisterStorage exports the underlying LSM engine's metrics on reg.
// No-op for non-LSM engines; safe on a nil registry.
func (h *HistoryDB) RegisterStorage(reg *obs.Registry) {
	if p, ok := h.kv.(*storage.Persist); ok {
		p.Register(reg)
	}
}

// histVerLen is the fixed width of each hex version component; fixed
// width keeps lexical key order equal to commit order.
const histVerLen = 16

func histPrefix(ns, key string) string {
	return ns + "\x00" + key + "\x00"
}

// Record appends an update for ns/key at e.Version. Recording the same
// (key, version) twice overwrites — versions are unique per committed
// transaction, so this only happens when crash recovery replays a block.
func (h *HistoryDB) Record(ns, key string, e HistEntry) {
	k := fmt.Sprintf("%s%0*x%0*x", histPrefix(ns, key), histVerLen, e.Version.BlockNum, histVerLen, e.Version.TxNum)
	// Sized to fit: the engine keeps the slice, spare capacity included.
	h.kv.Put(k, e.AppendTo(make([]byte, 0, len(e.TxID)+len(e.Value)+histEntryOverhead)))
}

// RecordBatch appends history entries for every write in a batch.
func (h *HistoryDB) RecordBatch(batch *UpdateBatch, txID string, v Version, ts time.Time) {
	for ns, kvs := range batch.updates {
		for key, w := range kvs {
			h.Record(ns, key, HistEntry{
				TxID:      txID,
				Value:     w.Value,
				IsDelete:  w.IsDelete,
				Version:   v,
				Timestamp: ts,
			})
		}
	}
}

// Get returns the full history of ns/key in commit order.
func (h *HistoryDB) Get(ns, key string) []HistEntry {
	var out []HistEntry
	h.kv.IterPrefix(histPrefix(ns, key), func(_ string, buf []byte) bool {
		e, err := DecodeHistEntry(buf)
		if err != nil {
			panic("statedb: history entry: " + err.Error())
		}
		out = append(out, e)
		return true
	})
	return out
}

// Len returns the number of keys with history in ns.
func (h *HistoryDB) Len(ns string) int {
	prefix := ns + "\x00"
	n := 0
	prev := ""
	h.kv.IterPrefix(prefix, func(composite string, _ []byte) bool {
		// Strip the namespace prefix and the "\x00<version>" suffix to
		// recover the bare key; entries arrive sorted, so distinct keys are
		// counted by comparing neighbours.
		rest := composite[len(prefix):]
		key := rest
		if i := strings.LastIndexByte(rest, 0); i >= 0 {
			key = rest[:i]
		}
		if n == 0 || key != prev {
			n++
			prev = key
		}
		return true
	})
	return n
}
