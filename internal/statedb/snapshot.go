package statedb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"socialchain/internal/storage"
)

// snapshotEntry is one key's row in a snapshot stream.
type snapshotEntry struct {
	Namespace string  `json:"ns"`
	Key       string  `json:"key"`
	Value     []byte  `json:"value"`
	Version   Version `json:"version"`
}

// Snapshot writes the full world state as one JSON entry per line, in
// deterministic (namespace, key) order, so two peers at the same height
// produce byte-identical snapshots — a cheap state-equality check and a
// bootstrap artefact. The engine's sorted composite-key iteration IS
// (namespace, key) order, so both engines emit identical streams.
func (db *DB) Snapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var ierr error
	db.kv.IterPrefix("", func(composite string, buf []byte) bool {
		if strings.HasPrefix(composite, reservedPrefix) {
			// Bookkeeping (the commit savepoint) is not state: snapshots
			// stay byte-identical whether or not a peer tracks recovery.
			return true
		}
		ns, key := splitStateKey(composite)
		vv := decodeValue(buf)
		enc, err := json.Marshal(snapshotEntry{Namespace: ns, Key: key, Value: vv.Value, Version: vv.Version})
		if err != nil {
			ierr = fmt.Errorf("statedb: snapshot: %w", err)
			return false
		}
		if _, err := bw.Write(enc); err != nil {
			ierr = err
			return false
		}
		if err := bw.WriteByte('\n'); err != nil {
			ierr = err
			return false
		}
		return true
	})
	if ierr != nil {
		return ierr
	}
	return bw.Flush()
}

// Restore loads a Snapshot stream into a database without state,
// returning the number of keys loaded. Restoring into a database that
// holds state is an error (snapshots are bootstrap artefacts, not merges).
func (db *DB) Restore(r io.Reader) (int, error) {
	if len(db.Namespaces()) != 0 {
		return 0, fmt.Errorf("statedb: restore into non-empty database")
	}
	dec := json.NewDecoder(bufio.NewReader(r))
	n := 0
	for {
		var e snapshotEntry
		if err := dec.Decode(&e); err == io.EOF {
			// Snapshots never carry index entries; rebuild them from the
			// restored state.
			if db.idx != nil {
				db.idx.rebuild(db)
			}
			return n, nil
		} else if err != nil {
			return n, fmt.Errorf("statedb: restore entry %d: %w", n, err)
		}
		db.kv.ApplyBatch([]storage.Write{{Key: stateKey(e.Namespace, e.Key), Value: encodeValue(e.Value, e.Version)}})
		n++
	}
}
