package storage

// The memtable is the LSM engine's mutable head: a plain map absorbing
// writes at in-memory speed, dumped in sorted order when it is flushed
// into an SSTable. Tombstones live in the same map — a deletion must
// shadow older table versions of the key until compaction reclaims both.
// A write never reads what lies beneath it, as in LevelDB.

import "sort"

// lsmEntry is one key's state in a memtable dump, a table block or a
// merged iteration: either a value (tomb false) or a tombstone.
type lsmEntry struct {
	key   string
	value []byte
	tomb  bool
}

// memtable buffers writes between flushes.
type memtable struct {
	data map[string]lsmEntry
	// bytes approximates the heap held by data: each entry's key, value
	// and a fixed per-entry overhead. An overwrite or a tombstone replaces
	// the old value's bytes, so the flush threshold bounds what the
	// memtable holds, not what was written to it.
	bytes int64
}

func newMemtable() *memtable {
	return &memtable{data: make(map[string]lsmEntry)}
}

// get returns the memtable's entry for key (which may be a tombstone).
func (m *memtable) get(key string) (lsmEntry, bool) {
	e, ok := m.data[key]
	return e, ok
}

// set records a put, or with tomb a tombstone, without looking beneath
// the memtable: a tombstone for a key no table holds shadows nothing and
// is dropped by the compaction that reaches the bottom level.
func (m *memtable) set(key string, value []byte, tomb bool) {
	if tomb {
		value = nil
	}
	if old, had := m.data[key]; had {
		m.bytes -= int64(len(old.value))
	} else {
		m.bytes += int64(len(key)) + 48
	}
	m.data[key] = lsmEntry{key: key, value: value, tomb: tomb}
	m.bytes += int64(len(value))
}

// sortedPrefix returns the memtable's entries with the given prefix
// (tombstones included — they must shadow older runs during a merge) in
// ascending key order. An empty prefix dumps the whole table, which is
// exactly the flush path.
func (m *memtable) sortedPrefix(prefix string) []lsmEntry {
	out := make([]lsmEntry, 0, len(m.data))
	for k, e := range m.data {
		if len(prefix) > 0 && (len(k) < len(prefix) || k[:len(prefix)] != prefix) {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
