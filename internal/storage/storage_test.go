package storage

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
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

// engines returns one fresh instance of every engine under a stable label.
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
		"single":        NewSingle(),
		"persist":       persist,
		"persist-small": persistSmall,
	}
}

func TestOpenSelectsEngine(t *testing.T) {
	kv, err := Open(Config{Engine: EngineSingle})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := kv.(*Single); !ok {
		t.Fatal("EngineSingle did not open a Single")
	}
	if kv, err = Open(Config{Engine: EnginePersist, Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if _, ok := kv.(*Persist); !ok {
		t.Fatal("EnginePersist did not open a Persist")
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
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

// TestOpenRefusesRemovedEngine: the mapwal and sharded engines are gone,
// and naming one — in the config or in the env override — is the
// unknown-engine error that lists what remains, not a silent fallback to a
// default engine.
func TestOpenRefusesRemovedEngine(t *testing.T) {
	const valid = "(valid: single, persist)"
	for _, name := range []string{"mapwal", "sharded"} {
		kv, err := Open(Config{Engine: Engine(name)})
		if err == nil {
			kv.Close()
			t.Fatalf("Open(Engine: %s) opened %T, want error", name, kv)
		}
		if !strings.Contains(err.Error(), `unknown engine "`+name+`"`) || !strings.Contains(err.Error(), valid) {
			t.Fatalf("Open(Engine: %s) error = %q, want the unknown-engine error listing %s", name, err, valid)
		}
		t.Setenv(EngineEnvVar, name)
		kv, err = Open(Config{})
		if err == nil {
			kv.Close()
			t.Fatalf("%s=%s opened %T, want error", EngineEnvVar, name, kv)
		}
		if !strings.Contains(err.Error(), EngineEnvVar+` value "`+name+`"`) || !strings.Contains(err.Error(), valid) {
			t.Fatalf("%s=%s error = %q, want the unknown-engine error listing %s", EngineEnvVar, name, err, valid)
		}
	}
}

func TestOpenRejectsUnknownEnvEngine(t *testing.T) {
	t.Setenv(EngineEnvVar, "no-such-engine")
	kv, err := Open(Config{})
	if err == nil {
		t.Fatalf("unknown %s opened %T, want error", EngineEnvVar, kv)
	}
	if !strings.Contains(err.Error(), EngineEnvVar) {
		t.Fatalf("error %q does not name the env var", err)
	}
	// Explicit configs are never affected by the override.
	if _, err := Open(Config{Engine: EngineSingle}); err != nil {
		t.Fatalf("explicit engine rejected under bad env override: %v", err)
	}
}

func TestDefaultEngineAgreesWithOpenOnBadEnv(t *testing.T) {
	// DefaultEngine used to swallow EngineEnvVar errors and silently fall
	// back to the default, so a caller sizing itself off the default engine
	// could disagree with the engine Open refused to construct. Both must
	// now report the same typo'd override.
	t.Setenv(EngineEnvVar, "shraded")
	def, derr := DefaultEngine()
	if derr == nil {
		t.Fatalf("DefaultEngine() = %q under bad env, want error", def)
	}
	_, oerr := Open(Config{})
	if oerr == nil {
		t.Fatal("Open(Config{}) succeeded under bad env")
	}
	if derr.Error() != oerr.Error() {
		t.Fatalf("DefaultEngine and Open disagree:\n %v\n %v", derr, oerr)
	}
	if !strings.Contains(derr.Error(), "shraded") {
		t.Fatalf("error %q does not name the offending value", derr)
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

func TestEnvOverrideSelectsPersist(t *testing.T) {
	t.Setenv(EngineEnvVar, string(EnginePersist))
	kv, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := kv.(*Persist)
	if !ok {
		t.Fatalf("env override opened %T, want *Persist", kv)
	}
	// No Dir was configured: the engine must have materialised its own.
	if p.Dir() == "" {
		t.Fatal("persist engine without a directory")
	}
	defer os.RemoveAll(p.Dir())
	if err := p.Close(); err != nil {
		t.Fatal(err)
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

// dump captures the full sorted contents of an engine.
func dump(kv KV) []entry {
	var out []entry
	kv.IterPrefix("", func(k string, v []byte) bool {
		out = append(out, entry{key: k, value: append([]byte(nil), v...)})
		return true
	})
	return out
}

// TestEngineEquivalence drives every engine through identical op sequences
// and requires identical final state, iteration order, lengths and point
// reads — the contract that lets the persist engine replace the
// single-lock one under every store. Each persist engine is closed and
// reopened from its directory after the workload: the recovered state
// must match.
func TestEngineEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		dir := t.TempDir()
		single := NewSingle()
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
			apply(single, o)
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
			if keyCount(single) != keyCount(kv) {
				t.Fatalf("seed %d: key count single=%d %s=%d", seed, keyCount(single), name, keyCount(kv))
			}
		}
		ds := dump(single)
		for name, kv := range others {
			dh := dump(kv)
			if !reflect.DeepEqual(ds, dh) {
				t.Fatalf("seed %d: state diverged:\nsingle: %v\n%s: %v", seed, ds, name, dh)
			}
			for _, e := range ds {
				sv, sok := single.Get(e.key)
				hv, hok := kv.Get(e.key)
				if sok != hok || string(sv) != string(hv) {
					t.Fatalf("seed %d: Get(%q) single=%q/%v %s=%q/%v", seed, e.key, sv, sok, name, hv, hok)
				}
			}
			// Prefix iteration must agree too, not just the full dump.
			for _, prefix := range []string{"ns0\x00", "ns1\x00key/0", "ns2\x00key/11"} {
				var ks, kh []string
				single.IterPrefix(prefix, func(k string, _ []byte) bool { ks = append(ks, k); return true })
				kv.IterPrefix(prefix, func(k string, _ []byte) bool { kh = append(kh, k); return true })
				if !reflect.DeepEqual(ks, kh) {
					t.Fatalf("seed %d: IterPrefix(%q) single=%v %s=%v", seed, prefix, ks, name, kh)
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

func TestOpenDefaultEngine(t *testing.T) {
	// The empty config resolves through DefaultEngine (env-overridable for
	// the CI engine matrix) and must name a real engine.
	def, err := DefaultEngine()
	if err != nil {
		t.Fatalf("DefaultEngine(): %v", err)
	}
	if def != EngineSingle && def != EnginePersist {
		t.Fatalf("DefaultEngine() = %q", def)
	}
	kv, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open(Config{}): %v", err)
	}
	defer kv.Close()
	if def == EngineSingle {
		if _, ok := kv.(*Single); !ok {
			t.Fatalf("default engine %q opened %T", def, kv)
		}
		return
	}
	p, ok := kv.(*Persist)
	if !ok {
		t.Fatalf("default engine %q opened %T", def, kv)
	}
	defer os.RemoveAll(p.Dir())
}
