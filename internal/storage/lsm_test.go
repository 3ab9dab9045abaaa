package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"socialchain/internal/walframe"
)

// openLSM opens a persist engine over dir with a tiny memtable and fanout
// so tests exercise flushes and compactions.
func openLSM(t *testing.T, dir string) *Persist {
	t.Helper()
	p, err := OpenPersist(Config{Dir: dir, MemtableBytes: 1 << 10, CompactFanout: 2})
	if err != nil {
		t.Fatalf("open persist %s: %v", dir, err)
	}
	return p
}

// abandon stops p the way kill -9 leaves a directory: whatever the
// memtable held is gone from the engine, and only a front log (see
// front_test.go) can replay it. A sticky error is what makes Close skip
// its checkpoint, so the crash-style stop needs no switch on the engine.
func abandon(p *Persist) {
	p.setErr(errors.New("abandoned by the test"))
	_ = p.Close()
}

// dirFiles returns the names in dir matching prefix/suffix.
func dirFiles(t *testing.T, dir, prefix, suffix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) && strings.HasSuffix(e.Name(), suffix) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// TestLSMReopenRecoversState drives writes through flushes and
// compactions, closes, reopens, and requires identical contents — with the
// reopened state actually spread across SSTables.
func TestLSMReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	p := openLSM(t, dir)
	want := make(map[string]string)
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("ns\x00key/%03d", i%150)
		v := fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", 64))
		put(p, k, []byte(v))
		want[k] = v
	}
	for i := 0; i < 150; i += 3 {
		k := fmt.Sprintf("ns\x00key/%03d", i)
		del(p, k)
		delete(want, k)
	}
	p.ApplyBatch([]Write{
		{Key: "batch/a", Value: []byte("1")},
		{Key: "batch/b", Value: []byte("2")},
		{Key: "batch/a", Delete: true},
	})
	want["batch/b"] = "2"
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(dirFiles(t, dir, sstPrefix, sstSuffix)) == 0 {
		t.Fatal("workload produced no SSTables; the test is not exercising the table path")
	}

	re := openLSM(t, dir)
	defer re.Close()
	for k, v := range want {
		got, ok := re.Get(k)
		if !ok || string(got) != v {
			t.Fatalf("reopened Get(%q) = %q/%v, want %q", k, got, ok, v)
		}
	}
	got := map[string]string{}
	re.IterPrefix("", func(k string, v []byte) bool {
		got[k] = string(v)
		return true
	})
	wantLen := len(want)
	if len(got) != wantLen {
		t.Fatalf("iterated %d keys, want %d", len(got), wantLen)
	}
}

// TestLSMCompactionBoundsTables checks the level invariant: after a heavy
// overwrite workload and a drained compactor, no level holds fanout or
// more tables, and shadowed garbage has been dropped (total table bytes
// stay bounded instead of growing with every overwrite).
func TestLSMCompactionBoundsTables(t *testing.T) {
	dir := t.TempDir()
	p := openLSM(t, dir)
	big := strings.Repeat("v", 256)
	for i := 0; i < 400; i++ {
		put(p, fmt.Sprintf("k%03d", i%40), []byte(big))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re := openLSM(t, dir)
	defer re.Close()
	st := re.Stats()
	if st.SSTables == 0 {
		t.Fatal("no SSTables after 400 writes with a 1 KiB memtable")
	}
	// 40 live keys * ~300 bytes is ~12 KiB of live data; tables holding
	// 100x that would mean compaction never reclaimed shadowed versions.
	var total int64
	for _, name := range dirFiles(t, dir, sstPrefix, sstSuffix) {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > 1<<20 {
		t.Fatalf("tables hold %d bytes for ~12 KiB of live data; compaction is not reclaiming", total)
	}
	if n := keyCount(re); n != 40 {
		t.Fatalf("recovered %d keys, want 40", n)
	}
}

// TestLSMMemtableCountsBytesHeld overwrites one key until five times the
// flush threshold has been written: the memtable still holds one entry, so
// it counts one entry's bytes and never flushes. A tombstone gives the
// value's bytes back.
func TestLSMMemtableCountsBytesHeld(t *testing.T) {
	const key = "ns\x00hot"
	value := bytes.Repeat([]byte("v"), 100)
	p, err := OpenPersist(Config{Dir: t.TempDir(), MemtableBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 5*(4<<10)/len(value); i++ {
		put(p, key, value)
	}
	st := p.Stats()
	if want := int64(len(key) + 48 + len(value)); st.MemtableBytes != want {
		t.Fatalf("memtable counts %d bytes for one %d-byte entry", st.MemtableBytes, want)
	}
	if st.Flushes != 0 || st.SSTables != 0 {
		t.Fatalf("%d flushes, %d tables: overwrites of one key crossed the threshold", st.Flushes, st.SSTables)
	}
	del(p, key)
	if st, want := p.Stats(), int64(len(key)+48); st.MemtableBytes != want {
		t.Fatalf("memtable counts %d bytes for one tombstone, want %d", st.MemtableBytes, want)
	}
}

// TestLSMIterPrefixPointInTime starts an iteration, then mutates the
// engine from inside fn — overwrites, deletes, new keys, enough bytes to
// force a memtable flush and compactions mid-iteration. The iteration
// must deliver exactly the state it started from.
func TestLSMIterPrefixPointInTime(t *testing.T) {
	dir := t.TempDir()
	p := openLSM(t, dir)
	defer p.Close()
	want := make([]string, 0, 120)
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("pit/%03d", i)
		put(p, k, []byte("v-"+k))
		want = append(want, k)
	}
	filler := strings.Repeat("f", 128)
	var got []string
	p.IterPrefix("pit/", func(k string, v []byte) bool {
		if string(v) != "v-"+k {
			t.Fatalf("key %s carries %q mid-iteration", k, v)
		}
		got = append(got, k)
		// Mutate everything ahead of the cursor: delete some, overwrite
		// others, insert keys that sort inside the remaining range, and
		// push enough bytes through to force flushes (1 KiB memtable) and
		// compactions while the iteration is live.
		i := len(got) - 1
		del(p, fmt.Sprintf("pit/%03d", (i+7)%120))
		put(p, fmt.Sprintf("pit/%03d-new", (i+3)%120), []byte(filler))
		put(p, fmt.Sprintf("churn/%03d", i), []byte(filler))
		// fn may re-enter the KV for reads too.
		p.Get(fmt.Sprintf("pit/%03d", (i+1)%120))
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iteration saw %d keys (want %d): point-in-time snapshot violated\ngot  %v\nwant %v",
			len(got), len(want), got, want)
	}
}

// TestLSMIterPrefixUnderConcurrentFlushAndCompaction runs iterations
// against a fixed "stable/" key set while a writer hammers a "hot/"
// space hard enough to flush and compact continuously. Every iteration
// must see exactly the stable set, in order — tables vanishing under a
// pinned version must never drop or duplicate entries.
func TestLSMIterPrefixUnderConcurrentFlushAndCompaction(t *testing.T) {
	dir := t.TempDir()
	p := openLSM(t, dir)
	defer p.Close()
	want := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("stable/%02d", i)
		put(p, k, []byte(k))
		want = append(want, k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		filler := strings.Repeat("w", 200)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			put(p, fmt.Sprintf("hot/%03d", i%50), []byte(filler))
			if i%7 == 0 {
				del(p, fmt.Sprintf("hot/%03d", (i+3)%50))
			}
		}
	}()
	for round := 0; round < 200; round++ {
		var got []string
		p.IterPrefix("stable/", func(k string, v []byte) bool {
			got = append(got, k)
			return true
		})
		if !reflect.DeepEqual(got, want) {
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: stable prefix saw %v, want %v", round, got, want)
		}
	}
	close(stop)
	wg.Wait()
	if st := p.Stats(); st.Flushes == 0 {
		t.Fatal("workload never flushed; the test exercised only the memtable")
	}
}

// buildWALOnly creates a front-store dir whose state lives purely in the
// front log, as a crash leaves it: two committed puts, then one final
// batch record.
func buildWALOnly(t *testing.T, dir string) {
	t.Helper()
	s := mustOpenFront(t, dir, Config{})
	put(s, "a", []byte("alpha"))
	put(s, "b", []byte("beta"))
	s.ApplyBatch([]Write{
		{Key: "c", Value: []byte("gamma")},
		{Key: "a", Delete: true},
		{Key: "d", Value: []byte("delta-" + strings.Repeat("z", 40))},
	})
	s.abandon()
}

// lsmState opens dir as a front store — the engine plus the replay of its
// front log — and dumps its full contents (recovery must succeed).
func lsmState(t *testing.T, dir string) map[string]string {
	t.Helper()
	s := mustOpenFront(t, dir, Config{})
	defer s.Close()
	got := map[string]string{}
	s.IterPrefix("", func(k string, v []byte) bool {
		got[k] = string(v)
		return true
	})
	return got
}

// TestLSMWALTornTailRecovery sweeps every truncation point and every
// corrupted byte of the front log's final record, and zero-filled tails
// (the record overwritten with zeros, or zeros appended after it): the
// front log is the engine's write-ahead log, and recovery must land
// exactly on the last fully-committed record — never an error, never a
// partial batch — and cut the file there.
func TestLSMWALTornTailRecovery(t *testing.T) {
	refDir := t.TempDir()
	buildWALOnly(t, refDir)
	if tables := dirFiles(t, refDir, sstPrefix, sstSuffix); len(tables) != 0 {
		t.Fatalf("reference dir holds tables %v, want its state in the front log only", tables)
	}
	refWAL, err := os.ReadFile(filepath.Join(refDir, frontName))
	if err != nil {
		t.Fatal(err)
	}
	var starts []int
	for off := 0; off < len(refWAL); {
		_, next, err := walframe.Next(refWAL, off)
		if err != nil {
			t.Fatalf("reference wal frame at %d: %v", off, err)
		}
		starts, off = append(starts, off), next
	}
	if len(starts) != 3 {
		t.Fatalf("reference wal has %d records, want 3", len(starts))
	}
	batchStart := starts[2]
	wantWithoutBatch := map[string]string{"a": "alpha", "b": "beta"}
	wantWithBatch := map[string]string{"b": "beta", "c": "gamma", "d": "delta-" + strings.Repeat("z", 40)}

	for cut := batchStart; cut < len(refWAL); cut++ {
		t.Run(fmt.Sprintf("truncate@%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			buildWALOnly(t, dir)
			wal := filepath.Join(dir, frontName)
			if err := os.Truncate(wal, int64(cut)); err != nil {
				t.Fatal(err)
			}
			if got := lsmState(t, dir); !reflect.DeepEqual(got, wantWithoutBatch) {
				t.Fatalf("recovered %v, want %v", got, wantWithoutBatch)
			}
			// The torn tail must have been truncated so the next append
			// produces a clean log; reopen once more to prove it.
			if got := lsmState(t, dir); !reflect.DeepEqual(got, wantWithoutBatch) {
				t.Fatalf("second reopen diverged")
			}
		})
	}
	for off := batchStart; off < len(refWAL); off++ {
		t.Run(fmt.Sprintf("corrupt@%d", off), func(t *testing.T) {
			dir := t.TempDir()
			buildWALOnly(t, dir)
			wal := filepath.Join(dir, frontName)
			data := append([]byte(nil), refWAL...)
			data[off] ^= 0xff
			if err := os.WriteFile(wal, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := lsmState(t, dir); !reflect.DeepEqual(got, wantWithoutBatch) {
				t.Fatalf("recovered %v, want %v", got, wantWithoutBatch)
			}
		})
	}
	t.Run("intact", func(t *testing.T) {
		dir := t.TempDir()
		buildWALOnly(t, dir)
		if got := lsmState(t, dir); !reflect.DeepEqual(got, wantWithBatch) {
			t.Fatalf("recovered %v, want %v", got, wantWithBatch)
		}
	})
	// A file system that extends a file before it writes the data leaves
	// zeros where a record was to go. Eight zero bytes parse as an empty
	// frame; no record is empty, so they are a torn tail like any other.
	type zeroCase struct {
		name string
		data []byte
		want map[string]string
		end  int // the file's size after recovery
	}
	zeroed := []zeroCase{{"zeroed-last", append(bytes.Clone(refWAL[:batchStart]), make([]byte, len(refWAL)-batchStart)...), wantWithoutBatch, batchStart}}
	for _, k := range []int{1, 7, 8, 9, 64, 4096} {
		zeroed = append(zeroed, zeroCase{fmt.Sprintf("zeros+%d", k), append(bytes.Clone(refWAL), make([]byte, k)...), wantWithBatch, len(refWAL)})
	}
	for _, c := range zeroed {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			buildWALOnly(t, dir)
			wal := filepath.Join(dir, frontName)
			if err := os.WriteFile(wal, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := openFront(dir, Config{}, nil)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			st, err := os.Stat(wal)
			s.abandon() // keep the front log as the only copy for lsmState
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(c.end) {
				t.Fatalf("wal is %d bytes after recovery, want %d", st.Size(), c.end)
			}
			if got := lsmState(t, dir); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("recovered %v, want %v", got, c.want)
			}
		})
	}
}

// TestLSMWALMidLogCorruptionIsFatal damages an early front-log record —
// one byte flipped, or zeros in place of it or before the next — while
// committed records follow: recovery must refuse — and leave the file
// byte-identical — instead of silently dropping the committed suffix.
func TestLSMWALMidLogCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenFront(t, dir, Config{})
	put(s, "first", []byte(strings.Repeat("a", 40)))
	put(s, "second", []byte(strings.Repeat("b", 40)))
	put(s, "third", []byte(strings.Repeat("c", 40)))
	s.abandon()
	wal := filepath.Join(dir, frontName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := walframe.Next(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[walframe.HeaderLen+4] ^= 0xff // inside the first record's payload
	// Zeros are damage, never a record: committed records after them make
	// them mid-log corruption, whether they replace the first record or
	// sit between two.
	zeroedFirst := append(make([]byte, second), data[second:]...)
	zerosBetween := append(append(bytes.Clone(data[:second]), make([]byte, walframe.HeaderLen)...), data[second:]...)
	for _, c := range []struct {
		name string
		data []byte
	}{{"flipped", flipped}, {"zeroed first", zeroedFirst}, {"zeros between", zerosBetween}} {
		if err := os.WriteFile(wal, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openFront(dir, Config{}, nil); err == nil {
			t.Fatalf("%s: mid-log corruption recovered silently", c.name)
		}
		after, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(c.data) {
			t.Fatalf("%s: failed open truncated the wal: %d -> %d bytes", c.name, len(c.data), len(after))
		}
		if !bytes.Equal(after, c.data) {
			t.Fatalf("%s: failed open rewrote the wal", c.name)
		}
	}
}

// buildTabled creates an LSM dir whose state is spread across SSTables
// (tiny memtable) and returns the expected contents.
func buildTabled(t *testing.T, dir string) map[string]string {
	t.Helper()
	p, err := OpenPersist(Config{Dir: dir, MemtableBytes: 1 << 10, CompactFanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("key/%03d", i)
		v := fmt.Sprintf("val-%d-%s", i, strings.Repeat("s", 24))
		put(p, k, []byte(v))
		want[k] = v
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(dirFiles(t, dir, sstPrefix, sstSuffix)) == 0 {
		t.Fatal("workload produced no SSTables")
	}
	return want
}

// checkNeverWrong opens dir after a fault injection and requires one of
// three honest outcomes for every key: open refuses, the read panics, or
// the read returns the exact committed value. Returning a WRONG value (or
// silently losing a key) fails the test.
func checkNeverWrong(t *testing.T, dir string, want map[string]string) {
	t.Helper()
	p, err := OpenPersist(Config{Dir: dir, MemtableBytes: 1 << 10, CompactFanout: 2})
	if err != nil {
		return // refused loudly at open: acceptable
	}
	defer func() {
		recover() // a panicking Close after a read panic is fine
	}()
	defer p.Close()
	for k, v := range want {
		func() {
			defer func() {
				recover() // integrity panic: loud failure, acceptable
			}()
			got, ok := p.Get(k)
			if !ok {
				t.Errorf("Get(%q) lost a committed key without failing loudly", k)
			} else if string(got) != v {
				t.Errorf("Get(%q) = %q, want %q: served a wrong value", k, got, v)
			}
		}()
		if t.Failed() {
			return
		}
	}
	// Iteration must be equally honest.
	func() {
		defer func() {
			recover()
		}()
		got := map[string]string{}
		p.IterPrefix("", func(k string, v []byte) bool {
			got[k] = string(v)
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("iteration diverged without failing loudly: %d keys, want %d", len(got), len(want))
		}
	}()
}

// TestLSMSSTableCorruptionSweep flips every byte of an SSTable file in
// turn: each faulted copy must either refuse to open, fail reads loudly,
// or serve exactly the committed values — never wrong data. This is the
// block/index/bloom/footer CRC gate.
func TestLSMSSTableCorruptionSweep(t *testing.T) {
	refDir := t.TempDir()
	want := buildTabled(t, refDir)
	step := 1
	if testing.Short() {
		step = 37
	}
	// Each iteration corrupts the mid-stack table of its own copy of the
	// reference dir; the loop ends when the offset runs past its size.
	for off := 0; ; off += step {
		dir := cloneDir(t, refDir)
		names := dirFiles(t, dir, sstPrefix, sstSuffix)
		name := names[len(names)/2]
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if off >= len(data) {
			break
		}
		data[off] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkNeverWrong(t, dir, want)
		if t.Failed() {
			t.Fatalf("corrupting %s at offset %d served wrong data", name, off)
		}
	}
}

// TestLSMSSTableTruncationSweep truncates an SSTable at every offset:
// recovery must refuse (footer/index unreadable) or reads must fail
// loudly — never a silently shrunken state.
func TestLSMSSTableTruncationSweep(t *testing.T) {
	refDir := t.TempDir()
	want := buildTabled(t, refDir)
	step := 1
	if testing.Short() {
		step = 37
	}
	for cut := 0; ; cut += step {
		dir := cloneDir(t, refDir)
		names := dirFiles(t, dir, sstPrefix, sstSuffix)
		name := names[len(names)/2]
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if int64(cut) >= fi.Size() {
			break
		}
		if err := os.Truncate(filepath.Join(dir, name), int64(cut)); err != nil {
			t.Fatal(err)
		}
		checkNeverWrong(t, dir, want)
		if t.Failed() {
			t.Fatalf("truncating %s at %d served wrong data", name, cut)
		}
	}
}

// TestLSMManifestDamageIsFatal flips every byte of the manifest and
// truncates it at every offset: the manifest is written atomically, so
// ANY damage is real corruption and open must refuse (an empty/absent
// manifest with live sst files must also refuse, not resurrect orphans).
func TestLSMManifestDamageIsFatal(t *testing.T) {
	refDir := t.TempDir()
	buildTabled(t, refDir)
	for off := 0; ; off++ {
		dir := cloneDir(t, refDir)
		data, err := os.ReadFile(manifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if off >= len(data) {
			break
		}
		data[off] ^= 0xff
		if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if p, err := OpenPersist(Config{Dir: dir}); err == nil {
			p.Close()
			t.Fatalf("manifest with byte %d flipped opened silently", off)
		}
	}
	for cut := 1; ; cut++ {
		dir := cloneDir(t, refDir)
		fi, err := os.Stat(manifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if int64(cut) >= fi.Size() {
			break
		}
		if err := os.Truncate(manifestPath(dir), int64(cut)); err != nil {
			t.Fatal(err)
		}
		if p, err := OpenPersist(Config{Dir: dir}); err == nil {
			p.Close()
			t.Fatalf("manifest truncated at %d opened silently", cut)
		}
	}
}

// TestLSMMissingFilesAreFatal removes a live SSTable and, separately, the
// front log whose end the tables' savepoint names: both must refuse
// recovery rather than silently lose committed writes.
func TestLSMMissingFilesAreFatal(t *testing.T) {
	t.Run("sstable", func(t *testing.T) {
		dir := t.TempDir()
		buildTabled(t, dir)
		names := dirFiles(t, dir, sstPrefix, sstSuffix)
		if err := os.Remove(filepath.Join(dir, names[0])); err != nil {
			t.Fatal(err)
		}
		if p, err := OpenPersist(Config{Dir: dir}); err == nil {
			p.Close()
			t.Fatal("missing live SSTable recovered silently")
		}
	})
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpenFront(t, dir, Config{MemtableBytes: 1 << 10})
		for i := 0; i < 40; i++ {
			put(s, fmt.Sprintf("key/%03d", i), []byte(strings.Repeat("v", 32)))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, frontName)); err != nil {
			t.Fatal(err)
		}
		if s, err := openFront(dir, Config{}, nil); err == nil {
			s.Close()
			t.Fatal("missing front log recovered silently")
		} else if !errors.Is(err, walframe.ErrLost) {
			t.Fatalf("missing front log: %v, want walframe.ErrLost", err)
		}
	})
}

// TestLSMAppendAfterTornTail proves writes continue cleanly after a
// torn-tail recovery of the front log.
func TestLSMAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenFront(t, dir, Config{})
	put(s, "keep", []byte("v1"))
	s.ApplyBatch([]Write{{Key: "torn", Value: []byte("lost")}})
	s.abandon()
	wal := filepath.Join(dir, frontName)
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	re := mustOpenFront(t, dir, Config{})
	if _, ok := re.Get("torn"); ok {
		t.Fatal("torn batch survived")
	}
	put(re, "after", []byte("v2"))
	re.abandon() // "after" is in the front log only
	final := mustOpenFront(t, dir, Config{})
	defer final.Close()
	if v, ok := final.Get("keep"); !ok || string(v) != "v1" {
		t.Fatalf("keep = %q/%v", v, ok)
	}
	if v, ok := final.Get("after"); !ok || string(v) != "v2" {
		t.Fatalf("after = %q/%v", v, ok)
	}
}

// TestLSMRefusesMapwalDirectory: pointing the LSM at a directory an older
// build's mapwal engine wrote — a WAL beside a snap-* snapshot — must be a
// descriptive error that leaves the directory as it was, not a silent
// open that ignores both.
func TestLSMRefusesMapwalDirectory(t *testing.T) {
	dir := t.TempDir()
	files := map[string][]byte{
		fmt.Sprintf("%s%016x%s", walPrefix, 3, walSuffix):   appendFrontRecord(nil, []Write{{Key: "k", Value: []byte("v")}}),
		fmt.Sprintf("%s%016x%s", snapPrefix, 3, snapSuffix): appendFrontRecord(nil, []Write{{Key: "old", Value: []byte("state")}}),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := OpenPersist(Config{Dir: dir})
	if err == nil {
		t.Fatal("LSM opened a mapwal directory silently")
	}
	if !strings.Contains(err.Error(), "older build's mapwal engine; no migration") {
		t.Fatalf("error %q does not point at the older build's mapwal engine", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(files) {
		t.Fatalf("refused open left %d files, want the %d it found", len(entries), len(files))
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("refused open changed %s: %v", name, err)
		}
	}
}

// TestLSMDurabilityModes runs the same workload under every durability
// mode and requires identical recovered state — the modes differ in when
// the front log fsyncs, never in logical behaviour. Under always every
// append fsyncs; under none only the flushes and Close do.
func TestLSMDurabilityModes(t *testing.T) {
	for _, d := range []Durability{DurabilityNone, DurabilityBatch, DurabilityAlways} {
		t.Run(string(d), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpenFront(t, dir, Config{Durability: d, MemtableBytes: 1 << 10})
			for i := 0; i < 100; i++ {
				put(s, fmt.Sprintf("k%03d", i), []byte(strings.Repeat("v", 32)))
			}
			s.ApplyBatch([]Write{{Key: "k000", Delete: true}, {Key: "extra", Value: []byte("e")}})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			fsyncs, st := s.log.Fsyncs(), s.Stats()
			if d == DurabilityAlways && fsyncs < 101 || d == DurabilityNone && fsyncs > st.Flushes {
				t.Fatalf("%d front-log fsyncs for 101 appends and %d flushes", fsyncs, st.Flushes)
			}
			re := mustOpenFront(t, dir, Config{})
			defer re.Close()
			if n := keyCount(re); n != 100 {
				t.Fatalf("%d keys, want 100", n)
			}
			if _, ok := re.Get("k000"); ok {
				t.Fatal("deleted key survived")
			}
			if v, ok := re.Get("extra"); !ok || string(v) != "e" {
				t.Fatalf("extra = %q/%v", v, ok)
			}
		})
	}
}

// TestLSMBloomSkipsNegativeLookups checks the bloom fast path: misses on
// never-written keys should overwhelmingly skip disk.
func TestLSMBloomSkipsNegativeLookups(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersist(Config{Dir: dir, MemtableBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		put(p, fmt.Sprintf("present/%04d", i), []byte(strings.Repeat("v", 32)))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersist(Config{Dir: dir, MemtableBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 500; i++ {
		// Keys inside the tables' fence range so only the filter can skip.
		if _, ok := re.Get(fmt.Sprintf("present/%04d-missing", i)); ok {
			t.Fatal("phantom key")
		}
	}
	st := re.Stats()
	if st.BloomChecks == 0 {
		t.Fatal("negative lookups never consulted the bloom filter")
	}
	if st.BloomSkips*10 < st.BloomChecks*9 {
		t.Fatalf("bloom skipped only %d of %d probes (<90%%)", st.BloomSkips, st.BloomChecks)
	}
	if st.BlockReads > st.BloomChecks-st.BloomSkips+10 {
		t.Fatalf("%d block reads for %d unfiltered probes", st.BlockReads, st.BloomChecks-st.BloomSkips)
	}
}

// TestEmptyBloomBlockRulesNothingOut: the writer always emits a filter, but
// a table whose bloom block is empty must still open and answer every
// lookup from its blocks, never skip one.
func TestEmptyBloomBlockRulesNothingOut(t *testing.T) {
	f, err := decodeBloom(nil)
	if err != nil {
		t.Fatalf("empty bloom block: %v", err)
	}
	for _, k := range []string{"", "a", "present/0001"} {
		if !f.mayContain(bloomHash(k)) {
			t.Fatalf("empty bloom block ruled out %q", k)
		}
	}
}

// copyFlatDir copies every regular file in src into dst (the LSM data
// directory is flat), simulating the on-disk state a kill -9 would leave
// while the source engine is still running.
func copyFlatDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLSMCompactionPreservesInFlightFlushWAL pins crash-safety invariant
// 5: a compaction rewrites flushed tables only. While a flush is in
// flight the front log is the only durable copy of the flushing
// memtable's records, so if the compaction manifest becomes the durable
// root in that window, its savepoint must still lie below them for
// recovery to replay them.
func TestLSMCompactionPreservesInFlightFlushWAL(t *testing.T) {
	dir := t.TempDir()
	// Oversized thresholds: nothing flushes or compacts except by the
	// test's explicit synchronous calls, so the background workers idle.
	s := mustOpenFront(t, dir, Config{MemtableBytes: 1 << 30, CompactFanout: 1 << 30})
	defer s.Close()
	p := s.Persist

	// Two flushed L0 tables.
	put(s, "t1", []byte("one"))
	flushNow(p)
	put(s, "t2", []byte("two"))
	flushNow(p)

	// A third memtable sealed but NOT yet flushed: its record exists only
	// in the front log.
	s.ApplyBatch([]Write{{Key: "inflight", Value: []byte("only-in-wal")}})
	sealMemtable(p)

	// Compact L0 while that flush is in flight (p.imm != nil).
	p.mu.Lock()
	p.fanout = 2
	p.mu.Unlock()
	if !p.compactOnce() {
		t.Fatal("compaction did no work")
	}
	p.mu.Lock()
	inFlight := p.imm != nil
	p.mu.Unlock()
	if !inFlight {
		t.Fatal("test setup: no flush in flight during compaction")
	}
	if m, ok, err := readManifest(dir); err != nil || !ok || len(m.levels) != 2 || len(m.levels[0]) != 0 {
		t.Fatalf("manifest after compaction: %+v ok=%v err=%v", m, ok, err)
	}

	// kill -9 in that window: recovery must still see the record.
	crash := t.TempDir()
	copyFlatDir(t, dir, crash)
	if got := lsmState(t, crash); got["inflight"] != "only-in-wal" || got["t1"] != "one" || got["t2"] != "two" {
		t.Fatalf("recovery lost the in-flight flush's records: %v", got)
	}
	p.doFlush() // the flusher's part: Close waits for a flush in flight
}

// TestLSMSealFsyncFailureNotAcknowledged: a flush whose front-log fsync
// fails must not publish its table — a manifest naming the table's
// savepoint could outlive the log bytes it covers. The failure is sticky:
// no manifest is written after it, flushing and compaction stop, Close
// reports it, and the front log replays everything the failed flush held.
func TestLSMSealFsyncFailureNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected fsync failure")
	var fail atomic.Bool
	s, err := openFront(dir, Config{MemtableBytes: 1 << 30, CompactFanout: 1 << 30}, func(sync func() error) error {
		if fail.Load() {
			return boom
		}
		return sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Persist
	put(s, "a", []byte("durable"))
	flushNow(p) // a healthy flush first
	manifest := readFile(t, manifestPath(dir))

	put(s, "b", []byte("in the front log"))
	fail.Store(true)
	flushNow(p)
	if !errors.Is(p.err, boom) {
		t.Fatalf("sticky error %v, want the injected failure", p.err)
	}
	if got := readFile(t, manifestPath(dir)); !bytes.Equal(got, manifest) {
		t.Fatal("a flush whose front-log fsync failed published a manifest")
	}
	p.mu.Lock()
	p.fanout = 1
	p.mu.Unlock()
	if p.compactOnce() {
		t.Fatal("compaction ran after a sticky front-log failure")
	}
	if v, ok := s.Get("b"); !ok || string(v) != "in the front log" {
		t.Fatalf("the unflushed memtable stopped serving: b = %q/%v", v, ok)
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the injected failure", err)
	}
	if got := lsmState(t, dir); !reflect.DeepEqual(got, map[string]string{"a": "durable", "b": "in the front log"}) {
		t.Fatalf("reopened state %v", got)
	}
}

// heapInUse is the live heap after a forced collection.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestLSMCloseDropsWhatItHeld: a closed engine that something still points
// at (a benchmark's first deployment, a registry's gauge closure) must not
// keep its memtables and table indexes alive. After the checkpoint (see
// close_test.go) the engine reads as empty, drops writes and says
// ErrClosed from Close once it has dropped one.
func TestLSMCloseDropsWhatItHeld(t *testing.T) {
	dir := t.TempDir()
	before := heapInUse()
	p, err := OpenPersist(Config{Dir: dir, MemtableBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 1<<10)
	for i := 0; i < 2<<10; i++ { // a 2 MiB memtable
		put(p, fmt.Sprintf("key-%06d", i), append([]byte(nil), value...))
	}
	filled := heapInUse()
	if filled-before < 2<<20 {
		t.Fatalf("a 2 MiB memtable added only %d bytes to the heap", filled-before)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	closed := heapInUse()
	if held := int64(closed) - int64(before); held > 256<<10 {
		t.Fatalf("the closed engine still holds %d KiB (open: %d KiB)", held>>10, (filled-before)>>10)
	}

	if _, ok := p.Get("key-000001"); ok || keyCount(p) != 0 {
		t.Fatal("a closed engine served a key")
	}
	p.IterPrefix("key-", func(string, []byte) bool { t.Fatal("a closed engine iterated"); return false })
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	put(p, "late", []byte("v"))
	p.ApplyBatch([]Write{{Key: "late2", Value: []byte("v")}})
	del(p, "key-000001")
	if _, ok := p.Get("late"); ok {
		t.Fatal("a closed engine kept a write")
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Close after a dropped write: %v", err)
	}
	runtime.KeepAlive(p)

	// Nothing was lost: the directory reopens with every key.
	q, err := OpenPersist(Config{Dir: dir, MemtableBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, ok := q.Get("late"); ok || keyCount(q) != 2<<10 {
		t.Fatalf("reopened with %d keys", keyCount(q))
	}
}

// TestApplyBatchReadsNothing: writes are blind. Overwriting and deleting
// keys that only SSTables hold — and deleting one nothing holds — probes
// no bloom filter and reads no block.
func TestApplyBatchReadsNothing(t *testing.T) {
	p := openQuiet(t, t.TempDir())
	defer p.Close()
	for i := 0; i < 40; i++ {
		put(p, fmt.Sprintf("key/%02d", i), []byte("tabled"))
	}
	flushNow(p)
	var batch []Write
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("key/%02d", i)
		if i%2 == 0 {
			batch = append(batch, Write{Key: k, Value: []byte("overwritten")})
		} else {
			batch = append(batch, Write{Key: k, Delete: true})
		}
	}
	batch = append(batch, Write{Key: "key/never", Delete: true})
	before := p.Stats()
	p.ApplyBatch(batch)
	if after := p.Stats(); after.BloomChecks != before.BloomChecks || after.BlockReads != before.BlockReads {
		t.Fatalf("a batch of %d writes probed %d bloom filters and read %d blocks", len(batch),
			after.BloomChecks-before.BloomChecks, after.BlockReads-before.BlockReads)
	}
	for i := 0; i < 40; i++ {
		v, ok := p.Get(fmt.Sprintf("key/%02d", i))
		if i%2 == 0 && (!ok || string(v) != "overwritten") || i%2 == 1 && ok {
			t.Fatalf("key/%02d = %q/%v after the batch", i, v, ok)
		}
	}
}

// TestBlindDeleteOfAbsentKey: a delete of a key that was never written is
// a tombstone like any other. The key stays invisible to Get and
// IterPrefix in the memtable, after a reopen from tables, and after the
// compaction into the bottom level, which drops the tombstone.
func TestBlindDeleteOfAbsentKey(t *testing.T) {
	dir := t.TempDir()
	p := openQuiet(t, dir)
	put(p, "a", []byte("alpha"))
	flushNow(p)
	del(p, "ghost")
	put(p, "z", []byte("zeta"))
	want := map[string]string{"a": "alpha", "z": "zeta"}
	check := func(when string, kv KV) {
		t.Helper()
		if v, ok := kv.Get("ghost"); ok {
			t.Fatalf("%s: a never-written key reads %q", when, v)
		}
		got := map[string]string{}
		kv.IterPrefix("", func(k string, v []byte) bool { got[k] = string(v); return true })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: state %v, want %v", when, got, want)
		}
	}
	check("in the memtable", p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPersist(Config{Dir: dir, MemtableBytes: 1 << 30, CompactFanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", re)
	if !re.compactOnce() {
		t.Fatal("test setup: two level-0 tables did not compact")
	}
	if st := re.Stats(); st.Levels != 2 || st.SSTables != 1 {
		t.Fatalf("test setup: compaction left %d tables on %d levels, want 1 at the bottom", st.SSTables, st.Levels)
	}
	for _, tb := range re.version.levels[1] {
		for it := newTableIter(tb, "", ""); it.valid(); it.next() {
			if e := it.entry(); e.tomb {
				t.Fatalf("the bottom-level compaction kept the tombstone of %q", e.key)
			}
		}
	}
	check("compacted", re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	final := openQuiet(t, dir)
	defer final.Close()
	check("reopened after compaction", final)
}
