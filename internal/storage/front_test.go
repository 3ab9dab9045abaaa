package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"socialchain/internal/walframe"
)

// The persist engine keeps no log: its owner's front log is the
// write-ahead log. frontStore is a test-owned one, in the shape both
// production owners (a peer's ledger, an IPFS node's blockstore) give the
// engine: each batch is appended to dir/front.log as one record, then
// applied with a savepoint naming the log's end; open replays the records
// above the savepoint; the engine's flush hook fsyncs the log.

const (
	frontName = "front.log"
	frontKey  = "\x00front" // the savepoint: how far the front log is applied
)

type frontStore struct {
	*Persist
	mu     sync.Mutex // orders an append with its batch
	log    *walframe.Log
	synced atomic.Int64 // the log end the last flush hook made durable
}

// openFront opens dir's engine and its front log under cfg. around, when
// non-nil, wraps the log's fsync inside the engine's flush hook, so a test
// can act at each step of a flush; its error is the hook's.
func openFront(dir string, cfg Config, around func(sync func() error) error) (*frontStore, error) {
	s := &frontStore{}
	cfg.Dir = dir
	cfg.SyncFront = func() error {
		sync := func() error {
			end := s.log.End()
			if err := s.log.Sync(); err != nil {
				return err
			}
			s.synced.Store(end)
			return nil
		}
		if around != nil {
			return around(sync)
		}
		return sync()
	}
	p, err := OpenPersist(cfg)
	if err != nil {
		return nil, err
	}
	s.Persist = p
	var from int64
	if v, ok := p.Get(frontKey); ok {
		from = int64(binary.BigEndian.Uint64(v))
	}
	s.synced.Store(from)
	var replay [][]Write
	s.log, err = walframe.OpenLog(filepath.Join(dir, frontName), from, p.Stats().Durability.LogPolicy(), func(off int64, rec []byte) error {
		writes, err := decodeFrontRecord(rec)
		if err != nil {
			return fmt.Errorf("front log record at %d: %w", off, err)
		}
		replay = append(replay, append(writes, savepointAt(off+walframe.HeaderLen+int64(len(rec)))))
		return nil
	})
	if err != nil {
		p.Close()
		return nil, err
	}
	for _, writes := range replay {
		p.ApplyBatch(writes)
	}
	return s, nil
}

// mustOpenFront is openFront failing the test on an error.
func mustOpenFront(t *testing.T, dir string, cfg Config) *frontStore {
	t.Helper()
	s, err := openFront(dir, cfg, nil)
	if err != nil {
		t.Fatalf("open front store %s: %v", dir, err)
	}
	return s
}

func savepointAt(end int64) Write {
	return Write{Key: frontKey, Value: binary.BigEndian.AppendUint64(nil, uint64(end))}
}

// ApplyBatch appends writes to the front log, then applies them with the
// savepoint.
func (s *frontStore) ApplyBatch(writes []Write) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.log.Append(appendFrontRecord(nil, writes)); err != nil {
		panic(err)
	}
	s.Persist.ApplyBatch(append(writes[:len(writes):len(writes)], savepointAt(s.log.End())))
}

// IterPrefix hides the savepoint: it is the store's key, not the test's.
func (s *frontStore) IterPrefix(prefix string, fn func(key string, value []byte) bool) {
	s.Persist.IterPrefix(prefix, func(k string, v []byte) bool { return k == frontKey || fn(k, v) })
}

// Close closes the engine, whose checkpoint syncs the log, then the log.
func (s *frontStore) Close() error {
	err := s.Persist.Close()
	return errors.Join(err, s.log.Close())
}

// abandon stops s the way kill -9 leaves its directory: whatever the
// memtable held is only in the front log.
func (s *frontStore) abandon() {
	abandon(s.Persist)
	_ = s.log.Close()
}

// appendFrontRecord appends one framed front-log record holding writes to
// buf: a uvarint write count, then per write an op byte, the uvarint key
// length and key and, for a put, the uvarint value length and value.
func appendFrontRecord(buf []byte, writes []Write) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, walframe.HeaderLen)...)
	buf = binary.AppendUvarint(buf, uint64(len(writes)))
	for _, w := range writes {
		op := byte(opPut)
		if w.Delete {
			op = opDelete
		}
		buf = append(buf, op)
		buf = binary.AppendUvarint(buf, uint64(len(w.Key)))
		buf = append(buf, w.Key...)
		if !w.Delete {
			buf = binary.AppendUvarint(buf, uint64(len(w.Value)))
			buf = append(buf, w.Value...)
		}
	}
	walframe.Seal(buf[start:])
	return buf
}

// decodeFrontRecord is appendFrontRecord's inverse; values are copied out
// of rec.
func decodeFrontRecord(rec []byte) ([]Write, error) {
	count, n := binary.Uvarint(rec)
	if n <= 0 || count > uint64(len(rec)) {
		return nil, errors.New("bad write count")
	}
	rec = rec[n:]
	writes := make([]Write, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(rec) == 0 {
			return nil, fmt.Errorf("short write %d", i)
		}
		op := rec[0]
		klen, n := binary.Uvarint(rec[1:])
		if n <= 0 || klen > uint64(len(rec)-1-n) {
			return nil, errors.New("bad key length")
		}
		w := Write{Key: string(rec[1+n : 1+n+int(klen)]), Delete: op == opDelete}
		rec = rec[1+n+int(klen):]
		if op == opPut {
			vlen, n := binary.Uvarint(rec)
			if n <= 0 || vlen > uint64(len(rec)-n) {
				return nil, errors.New("bad value length")
			}
			w.Value = append([]byte{}, rec[n:n+int(vlen)]...)
			rec = rec[n+int(vlen):]
		} else if op != opDelete {
			return nil, fmt.Errorf("bad op %d", op)
		}
		writes = append(writes, w)
	}
	if len(rec) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(rec))
	}
	return writes, nil
}

// TestLSMFlushCrashSweep copies the directory at each step of a flush —
// before its table, after the table is durable, after the front-log fsync
// the engine asks for, and after the manifest — using the flush hook as
// the interception point. Every copy is reopened twice:
//   - as kill -9 leaves it (the front log whole): it must replay to the
//     state of every batch written so far;
//   - as a power loss leaves it (the front log cut back to its last
//     fsynced offset at that step): it must open — no table may name a
//     savepoint above that offset — and replay to the state of the
//     batches whose records end at or below it.
func TestLSMFlushCrashSweep(t *testing.T) {
	live := t.TempDir()
	type image struct {
		step   string
		dir    string
		synced int64 // the front log's durable end when the copy was taken
	}
	var images []image
	var s *frontStore
	snap := func(step string, dropUnnamed bool) {
		dir := cloneDir(t, live)
		if dropUnnamed {
			m, _, err := readManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			named := map[string]bool{}
			for _, lvl := range m.levels {
				for _, no := range lvl {
					named[filepath.Base(sstPath(dir, no))] = true
				}
			}
			for _, name := range dirFiles(t, dir, sstPrefix, sstSuffix) {
				if !named[name] {
					if err := os.Remove(filepath.Join(dir, name)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		images = append(images, image{step, dir, s.synced.Load()})
	}
	s, err := openFront(live, Config{MemtableBytes: 1 << 30, CompactFanout: 1 << 30}, func(sync func() error) error {
		snap("before the table", true)
		snap("after the table is durable", false)
		err := sync()
		snap("after the front-log fsync", false)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// states[i] is the model after the batches whose records end at or
	// below ends[i].
	ends := []int64{0}
	states := []map[string]string{{}}
	model := map[string]string{}
	for round := 0; round < 4; round++ {
		for i := 0; i < 6; i++ {
			k := fmt.Sprintf("key/%02d", (round*5+i*3)%16)
			var w Write
			if (round+i)%4 == 3 {
				w = Write{Key: k, Delete: true}
				delete(model, k)
			} else {
				w = Write{Key: k, Value: []byte(fmt.Sprintf("r%d-%d", round, i))}
				model[k] = string(w.Value)
			}
			s.ApplyBatch([]Write{w, {Key: "round", Value: []byte{byte('0' + round)}}})
			model["round"] = string([]byte{byte('0' + round)})
			ends = append(ends, s.log.End())
			states = append(states, maps.Clone(model))
		}
		flushNow(s.Persist)
		snap("after the manifest", false)
	}

	stateAt := func(cut int64) map[string]string {
		i := sort.Search(len(ends), func(i int) bool { return ends[i] > cut }) - 1
		return states[i]
	}
	for i, im := range images {
		what := fmt.Sprintf("image %d (%s)", i, im.step)
		full := readFile(t, filepath.Join(im.dir, frontName))
		if got, want := lsmState(t, cloneDir(t, im.dir)), stateAt(int64(len(full))); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after kill -9: recovered %v, want %v", what, got, want)
		}
		lost := cloneDir(t, im.dir)
		if err := os.Truncate(filepath.Join(lost, frontName), im.synced); err != nil {
			t.Fatal(err)
		}
		re, err := openFront(lost, Config{}, nil)
		if err != nil {
			t.Fatalf("%s after power loss at %d of %d front-log bytes: %v", what, im.synced, len(full), err)
		}
		got := map[string]string{}
		re.IterPrefix("", func(k string, v []byte) bool { got[k] = string(v); return true })
		re.Close()
		if want := stateAt(im.synced); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after power loss at %d: recovered %v, want %v", what, im.synced, got, want)
		}
	}
	if len(images) != 4*4 {
		t.Fatalf("took %d images, want 4 per flush", len(images))
	}
}
