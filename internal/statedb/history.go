package statedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

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

// History is stored by reference, in the world state's own engine. Each
// committed write leaves one reserved key
//
//	\x00 H <ns> \x00 <key> \x00 <block, 8 B big-endian> <tx index, 4 B big-endian>
//
// whose one-byte value says whether the write was a delete. Nothing else
// is copied: the transaction ID, the timestamp and the written value are
// in the block, and Get reads them back from there. The fixed-width
// big-endian reference sorts a key's entries in commit order, and only an
// entry whose suffix after "<key>\x00" is exactly a reference belongs to
// the key — a longer one belongs to a key that starts with "<key>\x00"
// (keys may hold NULs).
const (
	histEntries = "H"
	histRefLen  = 8 + 4
)

var histPut, histDelete = []byte{0}, []byte{1}

// histPrefix is the reserved-keyspace name of ns/key's entries.
func histPrefix(ns, key string) string {
	return histEntries + ns + "\x00" + key + "\x00"
}

// histKey is the reserved-keyspace name of ns/key's entry at version v.
func histKey(ns, key string, v Version) string {
	var ref [histRefLen]byte
	binary.BigEndian.PutUint64(ref[:], v.BlockNum)
	binary.BigEndian.PutUint32(ref[8:], uint32(v.TxNum))
	return histPrefix(ns, key) + string(ref[:])
}

// HistoryWrites returns the history entries of one block's updates — one
// per write, referencing the transaction that made it — to ride the
// block's ApplyBlockAt batch, so they are atomic with the state they
// describe and a replayed block rewrites them with the same bytes.
func HistoryWrites(updates []TxUpdate) []ReservedWrite {
	var out []ReservedWrite
	for _, u := range updates {
		for ns, kvs := range u.Batch.updates {
			for key, w := range kvs {
				v := histPut
				if w.IsDelete {
					v = histDelete
				}
				out = append(out, ReservedWrite{Key: histKey(ns, key, u.Version), Value: v})
			}
		}
	}
	return out
}

// TxSource resolves a history reference: the ID, timestamp and writes of
// transaction tx of block n. It returns ErrNotVisible for a block staged
// by the committer but not yet appended to its chain.
type TxSource func(n uint64, tx uint32) (id string, ts time.Time, writes []WriteItem, err error)

// ErrNotVisible is a TxSource's answer for a block that is not visible
// yet; HistoryDB.Get skips that block's entries.
var ErrNotVisible = errors.New("statedb: block not visible yet")

// HistoryDB reads the update history of every key: the references
// HistoryWrites left in the state engine, resolved through a TxSource.
type HistoryDB struct {
	db  *DB
	txs TxSource
}

// NewHistoryDB returns the history of db's keys, resolved through txs.
func NewHistoryDB(db *DB, txs TxSource) *HistoryDB {
	return &HistoryDB{db: db, txs: txs}
}

// StorageStats reports ok=false: history has no engine of its own, its
// entries are part of the world state's (DB.StorageStats).
func (h *HistoryDB) StorageStats() (storage.PersistStats, bool) {
	return storage.PersistStats{}, false
}

// Get returns the full history of ns/key in commit order. An entry's
// value is the transaction's last write to the key; entries of a block
// that is not visible yet are skipped. An entry the TxSource cannot
// resolve is an error.
func (h *HistoryDB) Get(ns, key string) ([]HistEntry, error) {
	prefix := reservedPrefix + histPrefix(ns, key)
	var out []HistEntry
	var err error
	h.db.kv.IterPrefix(prefix, func(k string, v []byte) bool {
		if len(k) != len(prefix)+histRefLen {
			return true // another key's entry: that key continues past "<key>\x00"
		}
		ref := []byte(k[len(prefix):])
		n, tx := binary.BigEndian.Uint64(ref), binary.BigEndian.Uint32(ref[8:])
		id, ts, writes, serr := h.txs(n, tx)
		if errors.Is(serr, ErrNotVisible) {
			return true
		}
		if serr != nil {
			err = fmt.Errorf("statedb: history of %s/%q at block %d tx %d: %w", ns, key, n, tx, serr)
			return false
		}
		e := HistEntry{TxID: id, IsDelete: string(v) == string(histDelete), Version: Version{BlockNum: n, TxNum: uint64(tx)}, Timestamp: ts}
		for i := len(writes) - 1; i >= 0; i-- {
			if writes[i].Namespace == ns && writes[i].Key == key {
				e.Value = writes[i].Value
				break
			}
		}
		out = append(out, e)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
