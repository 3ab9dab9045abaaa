package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// openQuiet opens a persist engine whose thresholds nothing reaches, so
// tables appear only where the test (or Close) makes them.
func openQuiet(t *testing.T, dir string) *Persist {
	t.Helper()
	p, err := OpenPersist(Config{Dir: dir, MemtableBytes: 1 << 30, CompactFanout: 1 << 30})
	if err != nil {
		t.Fatalf("open persist %s: %v", dir, err)
	}
	return p
}

// sealMemtable makes the active memtable the flushing one, as a full
// memtable would, without waking the flusher: its records are then in
// memory (and in a front log, if the test keeps one) until somebody calls
// doFlush.
func sealMemtable(p *Persist) {
	p.mu.Lock()
	p.imm, p.mem = p.mem, newMemtable()
	p.mu.Unlock()
}

// flushNow seals the active memtable and flushes it the way the flusher
// would, synchronously.
func flushNow(p *Persist) {
	sealMemtable(p)
	p.doFlush()
}

// refused reports whether p has been marked closed: a write made before
// it returns true was taken.
func refused(p *Persist) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.closed
}

// requireCheckpointed fails unless dir is what a clean stop leaves: a
// manifest and its tables, no temp file.
func requireCheckpointed(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(manifestPath(dir)); err != nil {
		t.Fatalf("a clean stop left no manifest: %v", err)
	}
	if tmp := dirFiles(t, dir, "", ".tmp"); len(tmp) != 0 {
		t.Fatalf("a clean stop left temp files %v", tmp)
	}
}

// TestLSMCloseIsACheckpoint: after Close the directory holds the manifest
// and its tables; the next open starts with an empty memtable and serves
// every key — deletions of table-held keys included.
func TestLSMCloseIsACheckpoint(t *testing.T) {
	dir := t.TempDir()
	p := openQuiet(t, dir)
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("key/%03d", i), fmt.Sprintf("first-%d", i)
		put(p, k, []byte(v))
		want[k] = v
	}
	flushNow(p)
	// The unflushed part: overwrites, fresh keys and tombstones that must
	// go on shadowing the table's versions after the restart.
	for i := 0; i < 50; i += 5 {
		k := fmt.Sprintf("key/%03d", i)
		del(p, k)
		delete(want, k)
	}
	p.ApplyBatch([]Write{
		{Key: "key/001", Value: []byte("second")},
		{Key: "fresh", Value: []byte("new")},
	})
	want["key/001"], want["fresh"] = "second", "new"
	flushes := p.Stats().Flushes
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Flushes; got != flushes+1 {
		t.Fatalf("Close ran %d flushes, want 1", got-flushes)
	}
	requireCheckpointed(t, dir)
	if n := len(dirFiles(t, dir, sstPrefix, sstSuffix)); n != 2 {
		t.Fatalf("a clean stop left %d tables, want 2", n)
	}

	re := openQuiet(t, dir)
	defer re.Close()
	if st := re.Stats(); st.MemtableBytes != 0 {
		t.Fatalf("reopen after a clean stop holds a %d B memtable, want 0", st.MemtableBytes)
	}
	got := map[string]string{}
	re.IterPrefix("", func(k string, v []byte) bool { got[k] = string(v); return true })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened state diverged: %d keys, want %d", len(got), len(want))
	}
	if _, ok := re.Get("key/000"); ok {
		t.Fatal("a deleted key came back: the checkpoint dropped its tombstone")
	}
}

// TestLSMCloseOfEmptyMemtableWritesNothing: open-then-close cycles must
// not grow the directory or touch the manifest.
func TestLSMCloseOfEmptyMemtableWritesNothing(t *testing.T) {
	dir := t.TempDir()
	p := openQuiet(t, dir)
	put(p, "a", []byte("alpha"))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	files := dirFiles(t, dir, "", "")
	manifest, err := os.Stat(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := openQuiet(t, dir)
		if v, ok := p.Get("a"); !ok || string(v) != "alpha" {
			t.Fatalf("cycle %d: a = %q/%v", i, v, ok)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if got := p.Stats().Flushes; got != 0 {
			t.Fatalf("cycle %d: closing an empty memtable flushed %d times", i, got)
		}
	}
	if got := dirFiles(t, dir, "", ""); !reflect.DeepEqual(got, files) {
		t.Fatalf("open/close cycles changed the directory: %v -> %v", files, got)
	}
	after, err := os.Stat(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(manifest.ModTime()) || after.Size() != manifest.Size() {
		t.Fatal("open/close cycles rewrote the manifest")
	}
}

// TestLSMCloseCyclesKeepTablesBounded: every clean stop that holds a write
// adds a table, so restarts must not be able to pile tables up: Close
// finishes the compaction its own flush makes due.
func TestLSMCloseCyclesKeepTablesBounded(t *testing.T) {
	dir := t.TempDir()
	const fanout, cycles = 2, 20
	for i := 0; i < cycles; i++ {
		p, err := OpenPersist(Config{Dir: dir, MemtableBytes: 1 << 30, CompactFanout: fanout})
		if err != nil {
			t.Fatal(err)
		}
		put(p, fmt.Sprintf("k%02d", i), []byte("v"))
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		requireCheckpointed(t, dir)
	}
	p, err := OpenPersist(Config{Dir: dir, MemtableBytes: 1 << 30, CompactFanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st := p.Stats()
	if st.Levels > 5 || st.SSTables >= fanout*st.Levels || st.CompactionBacklog != 0 {
		t.Fatalf("%d write-and-restart cycles left %d tables on %d levels (backlog %d)",
			cycles, st.SSTables, st.Levels, st.CompactionBacklog)
	}
	if n := keyCount(p); n != cycles {
		t.Fatalf("%d keys, want %d", n, cycles)
	}
}

// TestLSMCloseWaitsForFlushInFlight: Close called while a sealed memtable
// is still being flushed checkpoints the active one behind it.
func TestLSMCloseWaitsForFlushInFlight(t *testing.T) {
	dir := t.TempDir()
	p := openQuiet(t, dir)
	put(p, "sealed", []byte("one"))
	sealMemtable(p)
	put(p, "active", []byte("two"))

	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	p.doFlush() // the flusher's part, before or after Close starts waiting
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	requireCheckpointed(t, dir)
	re := openQuiet(t, dir)
	defer re.Close()
	if st := re.Stats(); st.SSTables != 2 {
		t.Fatalf("reopen found %d tables, want 2", st.SSTables)
	}
	for k, v := range map[string]string{"sealed": "one", "active": "two"} {
		if got, ok := re.Get(k); !ok || string(got) != v {
			t.Fatalf("Get(%q) = %q/%v, want %q", k, got, ok, v)
		}
	}
}

// TestLSMCloseRacingWriters: a write that returned before the engine was
// marked closed is an acknowledged write — whichever side of the
// checkpoint it landed on, the next open must serve it. A writer stops at
// the first write after which the engine reports ErrClosed; that one write
// may or may not have landed, so the reopened engine holds every
// acknowledged key and at most one more per writer.
func TestLSMCloseRacingWriters(t *testing.T) {
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		p := openLSM(t, dir) // tiny memtable: flushes are in flight throughout
		const writers = 4
		acked := make([][]string, writers)
		started := make(chan struct{}, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					k := fmt.Sprintf("w%d/%05d", w, i)
					put(p, k, bytes.Repeat([]byte{byte(i)}, 64))
					if refused(p) {
						return
					}
					acked[w] = append(acked[w], k)
					if i == 20 {
						started <- struct{}{}
					}
				}
			}()
		}
		for w := 0; w < writers; w++ {
			<-started
		}
		if err := p.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatal(err)
		}
		wg.Wait()

		re := openLSM(t, dir)
		total := 0
		for w := range acked {
			total += len(acked[w])
			for i, k := range acked[w] {
				if v, ok := re.Get(k); !ok || len(v) != 64 || v[0] != byte(i) {
					t.Fatalf("round %d: acknowledged %q lost or wrong after Close (%d B, found %v)", round, k, len(v), ok)
				}
			}
		}
		if n := keyCount(re); n < total || n > total+writers {
			t.Fatalf("round %d: reopened with %d keys, %d were acknowledged by %d writers", round, n, total, writers)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLSMCloseWithStickyErrorLeavesTheWAL: an engine that has seen an I/O
// error does not checkpoint — it cannot vouch for a table it would write
// — so Close reports the error, writes nothing, and the front log, the
// engine's write-ahead log, replays.
func TestLSMCloseWithStickyErrorLeavesTheWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenFront(t, dir, Config{MemtableBytes: 1 << 30, CompactFanout: 1 << 30})
	for i := 0; i < 10; i++ {
		put(s, fmt.Sprintf("k%d", i), []byte("v"))
	}
	files := dirImage(t, dir)
	boom := errors.New("injected I/O error")
	s.setErr(boom)
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the sticky error", err)
	}
	if got := dirImage(t, dir); !reflect.DeepEqual(got, files) || s.Stats().Flushes != 0 {
		t.Fatal("Close with a sticky error wrote to the directory")
	}
	re := mustOpenFront(t, dir, Config{MemtableBytes: 1 << 30})
	defer re.Close()
	if st := re.Stats(); st.SSTables != 0 || keyCount(re) != 10 {
		t.Fatalf("reopen found %d tables and %d keys, want the 10 keys from the front log alone", st.SSTables, keyCount(re))
	}
}

// TestLSMCloseCheckpointCrashSweep cuts the process at every byte a
// close-time flush writes — the table, the manifest's temp file — and at
// the steps after them (manifest renamed; everything done). Every image
// reopens, with its front log replayed, to the logical state Close
// started from, and reopens to it again after that open's own clean stop.
// Flipped bytes in the unfinished files are swept too: until the manifest
// names them they are orphans. (Damage to a NAMED table or manifest is
// TestLSMSSTableCorruptionSweep's and TestLSMManifestDamageIsFatal's.)
func TestLSMCloseCheckpointCrashSweep(t *testing.T) {
	live := t.TempDir()
	p := mustOpenFront(t, live, Config{MemtableBytes: 1 << 30, CompactFanout: 1 << 30})
	for i := 0; i < 12; i++ {
		put(p, fmt.Sprintf("key/%02d", i), []byte(fmt.Sprintf("tabled-%d", i)))
	}
	flushNow(p.Persist)
	del(p, "key/03")
	put(p, "key/04", []byte("overwritten"))
	put(p, "late", []byte("only-in-wal"))
	pre := t.TempDir() // kill -9 just before Close
	copyFlatDir(t, live, pre)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	want := lsmState(t, cloneDir(t, pre))
	if want["late"] != "only-in-wal" || want["key/04"] != "overwritten" || len(want) != 12 {
		t.Fatalf("test setup: pre-Close state is %v", want)
	}

	// What the checkpoint added, in write order.
	had := map[string]bool{}
	for _, name := range dirFiles(t, pre, "", "") {
		had[name] = true
	}
	var newTable string
	for _, name := range dirFiles(t, live, "", "") {
		if !had[name] && filepath.Ext(name) == sstSuffix {
			newTable = name
		}
	}
	if newTable == "" {
		t.Fatal("test setup: Close added no table")
	}
	table := readFile(t, filepath.Join(live, newTable))
	manifest := readFile(t, manifestPath(live))

	check := func(what string, files map[string][]byte) {
		t.Helper()
		dir := cloneDir(t, pre)
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for open := 1; open <= 2; open++ {
			if got := lsmState(t, dir); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, open %d: recovered %v, want %v", what, open, got, want)
			}
		}
	}
	damaged := func(data []byte, at int, flip bool) []byte {
		if !flip {
			return data[:at]
		}
		out := append([]byte(nil), data...)
		out[at] ^= 0xff
		return out
	}
	for _, flip := range []bool{false, true} {
		for at := 0; at < len(table); at++ {
			check(fmt.Sprintf("table at %d (flip %v)", at, flip), map[string][]byte{
				newTable: damaged(table, at, flip)})
		}
		for at := 0; at < len(manifest); at++ {
			check(fmt.Sprintf("manifest tmp at %d (flip %v)", at, flip), map[string][]byte{
				newTable: table, filepath.Base(manifestPath(live)) + ".tmp": damaged(manifest, at, flip)})
		}
	}
	check("manifest renamed", map[string][]byte{
		newTable: table, filepath.Base(manifestPath(live)): manifest})
	if got := lsmState(t, live); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the whole checkpoint: recovered %v, want %v", got, want)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cloneDir copies src into a fresh temp dir.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	copyFlatDir(t, src, dst)
	return dst
}
