package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// put and del write one key through ApplyBatch, the engine's only write.
func put(kv KV, key string, value []byte) { kv.ApplyBatch([]Write{{Key: key, Value: value}}) }
func del(kv KV, key string)               { kv.ApplyBatch([]Write{{Key: key, Delete: true}}) }

// keyCount counts kv's keys by iteration.
func keyCount(kv KV) int {
	n := 0
	kv.IterPrefix("", func(string, []byte) bool { n++; return true })
	return n
}

// engines returns one fresh instance of every engine configuration under
// a stable label.
func engines(tb testing.TB) map[string]KV {
	persist, err := OpenPersist(Config{Dir: tb.TempDir()})
	if err != nil {
		tb.Fatalf("open persist: %v", err)
	}
	// A tiny memtable and fanout force flushes and compactions even under
	// small workloads, so the SSTable read path is exercised everywhere.
	persistSmall, err := OpenPersist(Config{Dir: tb.TempDir(), MemtableBytes: 256, CompactFanout: 2})
	if err != nil {
		tb.Fatalf("open persist-small: %v", err)
	}
	// Registered after the TempDirs, so it runs before their removal: a
	// background flush still writing there fails the directory cleanup.
	tb.Cleanup(func() {
		persist.Close()
		persistSmall.Close()
	})
	return map[string]KV{
		"persist":       persist,
		"persist-small": persistSmall,
	}
}

// TestOpenSelectsEngine: the empty engine name and EnginePersist both
// open the persist engine.
func TestOpenSelectsEngine(t *testing.T) {
	for _, e := range []Engine{"", EnginePersist} {
		kv, err := Open(Config{Engine: e, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := kv.(*Persist); !ok {
			t.Fatalf("Engine %q opened %T, want *Persist", e, kv)
		}
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenRejectsUnknownEngine(t *testing.T) {
	// An explicitly-unknown engine must be an error, never a silent
	// fallback: a peer configured for a durable engine must not quietly run
	// on RAM.
	kv, err := Open(Config{Engine: "no-such-engine"})
	if err == nil {
		t.Fatalf("unknown engine opened %T, want error", kv)
	}
	if !strings.Contains(err.Error(), "no-such-engine") {
		t.Fatalf("error %q does not name the offending engine", err)
	}
}

// TestOpenRefusesRemovedEngine: the single, mapwal and sharded engines are
// gone, and naming one is the unknown-engine error that lists what
// remains, not a silent fallback to the one engine left.
func TestOpenRefusesRemovedEngine(t *testing.T) {
	const valid = "(valid: persist)"
	for _, name := range []string{"single", "mapwal", "sharded"} {
		kv, err := Open(Config{Engine: Engine(name)})
		if err == nil {
			kv.Close()
			t.Fatalf("Open(Engine: %s) opened %T, want error", name, kv)
		}
		if !strings.Contains(err.Error(), `unknown engine "`+name+`"`) || !strings.Contains(err.Error(), valid) {
			t.Fatalf("Open(Engine: %s) error = %q, want the unknown-engine error listing %s", name, err, valid)
		}
		if verr := Engine(name).Validate(); verr == nil || verr.Error() != err.Error() {
			t.Fatalf("Validate(%s) = %v, want Open's error %q", name, verr, err)
		}
	}
}

func TestOpenRejectsUnknownEnvDurability(t *testing.T) {
	t.Setenv(DurabilityEnvVar, "sometimes")
	if p, err := OpenPersist(Config{Dir: t.TempDir()}); err == nil {
		p.Close()
		t.Fatalf("unknown %s opened the persist engine, want error", DurabilityEnvVar)
	}
	// An explicit durability is never affected by the override.
	p, err := OpenPersist(Config{Dir: t.TempDir(), Durability: DurabilityBatch})
	if err != nil {
		t.Fatalf("explicit durability rejected under bad env override: %v", err)
	}
	p.Close()
}

// fillPastFlush writes until p has flushed a table to its directory.
func fillPastFlush(t *testing.T, p *Persist) {
	t.Helper()
	value := make([]byte, 1<<10)
	for i := 0; p.Stats().Flushes == 0; i++ {
		if i > 10000 {
			t.Fatal("no flush after 10 MiB of writes")
		}
		put(p, fmt.Sprintf("k/%06d", i), value)
		if i%64 == 63 {
			time.Sleep(time.Millisecond)
		}
	}
}

// TestOpenDefaultEngine: the empty config opens the persist engine on a
// temporary directory of its own, and its Close removes that directory
// with the tables a flush wrote there.
func TestOpenDefaultEngine(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	kv, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := kv.(*Persist)
	if !ok {
		t.Fatalf("Open(Config{}) opened %T, want *Persist", kv)
	}
	if filepath.Dir(p.Dir()) != tmp {
		t.Fatalf("engine directory %s is not under TMPDIR %s", p.Dir(), tmp)
	}
	fillPastFlush(t, p)
	if ssts, _ := filepath.Glob(filepath.Join(p.Dir(), sstPrefix+"*")); len(ssts) == 0 {
		t.Fatal("a flush left no table in the engine directory")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("Close left %d entries in TMPDIR, want none (first: %s)", len(left), left[0].Name())
	}
}

// TestTempEngineCloseSkipsCheckpoint: an engine on a directory OpenPersist
// made writes no table at Close, since the directory goes next, and
// leaves TMPDIR empty.
func TestTempEngineCloseSkipsCheckpoint(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	p, err := OpenPersist(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		put(p, fmt.Sprintf("k/%d", i), []byte("v"))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n := p.Stats().Flushes; n != 0 {
		t.Fatalf("Close of a temporary engine ran %d flushes, want 0", n)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("Close left %d entries in TMPDIR, want none (first: %s)", len(left), left[0].Name())
	}
}

// TestCloseKeepsGivenDir: an engine never removes a directory its caller
// named; the tables there reopen with everything written.
func TestCloseKeepsGivenDir(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersist(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fillPastFlush(t, p)
	n := keyCount(p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("Close removed the caller's directory: %v", err)
	}
	re, err := OpenPersist(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := keyCount(re); got != n {
		t.Fatalf("reopened engine holds %d keys, want %d", got, n)
	}
}

func TestBasicOps(t *testing.T) {
	for name, kv := range engines(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok := kv.Get("missing"); ok {
				t.Fatal("phantom key")
			}
			put(kv, "a", []byte("1"))
			put(kv, "a", []byte("2"))
			if v, ok := kv.Get("a"); !ok || string(v) != "2" {
				t.Fatalf("Get = %q %v", v, ok)
			}
			if n := keyCount(kv); n != 1 {
				t.Fatalf("%d keys, want 1", n)
			}
			del(kv, "a")
			if v, ok := kv.Get("a"); ok {
				t.Fatalf("deleted key reads %q", v)
			}
			del(kv, "a") // blind: deleting an absent key is a write like any other
			if n := keyCount(kv); n != 0 {
				t.Fatalf("%d keys after delete, want 0", n)
			}
		})
	}
}

func TestApplyBatchLastWriteWins(t *testing.T) {
	for name, kv := range engines(t) {
		t.Run(name, func(t *testing.T) {
			kv.ApplyBatch([]Write{
				{Key: "k", Value: []byte("first")},
				{Key: "k", Value: []byte("second")},
				{Key: "gone", Value: []byte("x")},
				{Key: "gone", Delete: true},
			})
			if v, ok := kv.Get("k"); !ok || string(v) != "second" {
				t.Fatalf("k = %q %v", v, ok)
			}
			if _, ok := kv.Get("gone"); ok {
				t.Fatal("delete staged after put must win")
			}
		})
	}
}

func TestIterPrefixSortedAndStoppable(t *testing.T) {
	for name, kv := range engines(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"b/2", "a/1", "b/1", "c/9", "b/3"} {
				put(kv, k, []byte(k))
			}
			var got []string
			kv.IterPrefix("b/", func(k string, v []byte) bool {
				if string(v) != k {
					t.Fatalf("value mismatch for %s: %q", k, v)
				}
				got = append(got, k)
				return true
			})
			want := []string{"b/1", "b/2", "b/3"}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("IterPrefix = %v, want %v", got, want)
			}
			var first []string
			kv.IterPrefix("", func(k string, _ []byte) bool {
				first = append(first, k)
				return len(first) < 2
			})
			if !reflect.DeepEqual(first, []string{"a/1", "b/1"}) {
				t.Fatalf("early stop walked %v", first)
			}
		})
	}
}

func TestIterPrefixAllowsReentrancy(t *testing.T) {
	for name, kv := range engines(t) {
		t.Run(name, func(t *testing.T) {
			put(kv, "a", []byte("1"))
			put(kv, "b", []byte("2"))
			kv.IterPrefix("", func(k string, _ []byte) bool {
				put(kv, "nested/"+k, []byte("x")) // must not deadlock
				return true
			})
			if n := keyCount(kv); n != 4 {
				t.Fatalf("%d keys after reentrant puts, want 4", n)
			}
		})
	}
}

// TestIterPrefixSeesWholeBatches: IterPrefix is a point-in-time view, so a
// reader racing a writer that rewrites every key under a prefix in one
// ApplyBatch sees all of those keys from the same batch, never a mix of two.
func TestIterPrefixSeesWholeBatches(t *testing.T) {
	const keys = 32
	batch := func(gen int) []Write {
		v := []byte(strconv.Itoa(gen))
		ws := make([]Write, keys)
		for i := range ws {
			ws[i] = Write{Key: fmt.Sprintf("w/%02d", i), Value: v}
		}
		return ws
	}
	for name, kv := range engines(t) {
		t.Run(name, func(t *testing.T) {
			kv.ApplyBatch(batch(0))
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for gen := 1; ; gen++ {
					select {
					case <-stop:
						return
					default:
						kv.ApplyBatch(batch(gen))
					}
				}
			}()
			defer func() { close(stop); <-done }()
			for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
				var seen []string
				kv.IterPrefix("w/", func(_ string, v []byte) bool {
					seen = append(seen, string(v))
					return true
				})
				if len(seen) != keys {
					t.Fatalf("IterPrefix saw %d keys, want %d", len(seen), keys)
				}
				for _, v := range seen {
					if v != seen[0] {
						t.Fatalf("IterPrefix mixed batches: %v", seen)
					}
				}
			}
		})
	}
}

// op is one step of a generated workload for the equivalence test.
type op struct {
	kind  int // 0 put, 1 delete, 2 batch
	key   string
	value []byte
	batch []Write
}

// randomOps generates a deterministic mixed workload over a small hot key
// space so puts, overwrites, deletes and batches all collide.
func randomOps(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	key := func() string {
		return fmt.Sprintf("ns%d\x00key/%03d", rng.Intn(3), rng.Intn(120))
	}
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			ops = append(ops, op{kind: 0, key: key(), value: []byte(fmt.Sprintf("v%d", i))})
		case 2:
			ops = append(ops, op{kind: 1, key: key()})
		default:
			batch := make([]Write, 0, 8)
			for j := rng.Intn(8); j >= 0; j-- {
				w := Write{Key: key()}
				if rng.Intn(4) == 0 {
					w.Delete = true
				} else {
					w.Value = []byte(fmt.Sprintf("b%d-%d", i, j))
				}
				batch = append(batch, w)
			}
			ops = append(ops, op{kind: 2, batch: batch})
		}
	}
	return ops
}

func apply(kv KV, o op) {
	switch o.kind {
	case 0:
		put(kv, o.key, o.value)
	case 1:
		del(kv, o.key)
	default:
		kv.ApplyBatch(o.batch)
	}
}

// entry is one (key, value) pair of a dump.
type entry struct {
	key   string
	value []byte
}

// dump captures the full sorted contents of an engine.
func dump(kv KV) []entry {
	var out []entry
	kv.IterPrefix("", func(k string, v []byte) bool {
		out = append(out, entry{key: k, value: append([]byte(nil), v...)})
		return true
	})
	return out
}

// model is the reference TestEngineEquivalence holds the engine to: one
// map, sorted on every scan, with the KV contract's semantics and nothing
// else.
type model map[string][]byte

func (m model) Get(key string) ([]byte, bool) { v, ok := m[key]; return v, ok }

func (m model) IterPrefix(prefix string, fn func(key string, value []byte) bool) {
	var keys []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !fn(k, m[k]) {
			return
		}
	}
}

func (m model) ApplyBatch(writes []Write) {
	for _, w := range writes {
		if w.Delete {
			delete(m, w.Key)
		} else {
			m[w.Key] = w.Value
		}
	}
}

func (m model) Close() error { return nil }

// TestEngineEquivalence drives the engine, in two configurations, and a
// map model through identical op sequences and requires identical final
// state, iteration order, lengths and point reads. Each engine is closed
// and reopened from its directory after the workload: the recovered state
// must match.
func TestEngineEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		dir := t.TempDir()
		ref := model{}
		persist, err := OpenPersist(Config{Dir: dir, MemtableBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		// A 1 KiB memtable with fanout 2 flushes and compacts constantly,
		// so the reopened state crosses memtable, L0 and deeper levels.
		smallDir := t.TempDir()
		small, err := OpenPersist(Config{Dir: smallDir, MemtableBytes: 1 << 10, CompactFanout: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range randomOps(seed, 600) {
			apply(ref, o)
			apply(persist, o)
			apply(small, o)
		}
		if err := persist.Close(); err != nil {
			t.Fatalf("seed %d: close persist: %v", seed, err)
		}
		if err := small.Close(); err != nil {
			t.Fatalf("seed %d: close persist-small: %v", seed, err)
		}
		reopened, err := OpenPersist(Config{Dir: dir, MemtableBytes: 4 << 10})
		if err != nil {
			t.Fatalf("seed %d: reopen persist: %v", seed, err)
		}
		reopenedSmall, err := OpenPersist(Config{Dir: smallDir, MemtableBytes: 1 << 10, CompactFanout: 2})
		if err != nil {
			t.Fatalf("seed %d: reopen persist-small: %v", seed, err)
		}
		others := map[string]KV{
			"persist":       reopened,
			"persist-small": reopenedSmall,
		}
		for name, kv := range others {
			if keyCount(ref) != keyCount(kv) {
				t.Fatalf("seed %d: key count model=%d %s=%d", seed, keyCount(ref), name, keyCount(kv))
			}
		}
		ds := dump(ref)
		for name, kv := range others {
			dh := dump(kv)
			if !reflect.DeepEqual(ds, dh) {
				t.Fatalf("seed %d: state diverged:\nmodel: %v\n%s: %v", seed, ds, name, dh)
			}
			for _, e := range ds {
				sv, sok := ref.Get(e.key)
				hv, hok := kv.Get(e.key)
				if sok != hok || string(sv) != string(hv) {
					t.Fatalf("seed %d: Get(%q) model=%q/%v %s=%q/%v", seed, e.key, sv, sok, name, hv, hok)
				}
			}
			// Prefix iteration must agree too, not just the full dump.
			for _, prefix := range []string{"ns0\x00", "ns1\x00key/0", "ns2\x00key/11"} {
				var ks, kh []string
				ref.IterPrefix(prefix, func(k string, _ []byte) bool { ks = append(ks, k); return true })
				kv.IterPrefix(prefix, func(k string, _ []byte) bool { kh = append(kh, k); return true })
				if !reflect.DeepEqual(ks, kh) {
					t.Fatalf("seed %d: IterPrefix(%q) model=%v %s=%v", seed, prefix, ks, name, kh)
				}
			}
		}
		for name, kv := range others {
			if err := kv.Close(); err != nil {
				t.Fatalf("seed %d: close reopened %s: %v", seed, name, err)
			}
		}
	}
}
