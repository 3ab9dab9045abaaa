package storage

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// benchEngines pairs each engine constructor with its label so every
// benchmark compares the single-lock map with the LSM persist engine under
// identical workloads.
var benchEngines = []struct {
	name string
	open func(tb testing.TB) KV
}{
	{"single", func(testing.TB) KV { return NewSingle() }},
	{"persist", func(tb testing.TB) KV {
		p, err := OpenPersist(Config{Dir: tb.TempDir()})
		if err != nil {
			tb.Fatalf("open persist: %v", err)
		}
		// Registered after TempDir, so it runs first: a background flush
		// still writing there would fail the directory's removal.
		tb.Cleanup(func() { _ = p.Close() })
		return p
	}},
}

// benchKeys precomputes the key space so key formatting never pollutes the
// measured engine cost.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("data\x00rec/%06d", i)
	}
	return keys
}

func seedKV(kv KV, keys []string) {
	batch := make([]Write, 0, len(keys))
	for i, k := range keys {
		batch = append(batch, Write{Key: k, Value: []byte(fmt.Sprintf(`{"label":"car","idx":%d}`, i))})
	}
	kv.ApplyBatch(batch)
}

// BenchmarkGet measures uncontended point reads per engine.
func BenchmarkGet(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			kv := e.open(b)
			keys := benchKeys(10000)
			seedKV(kv, keys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kv.Get(keys[(i*31)%len(keys)])
			}
		})
	}
}

// BenchmarkApplyBatch measures block-style batched commits per engine.
func BenchmarkApplyBatch(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			kv := e.open(b)
			keys := benchKeys(10000)
			val := []byte("value")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := make([]Write, 0, 10)
				for j := 0; j < 10; j++ {
					batch = append(batch, Write{Key: keys[(i*10+j)%len(keys)], Value: val})
				}
				kv.ApplyBatch(batch)
			}
		})
	}
}

// BenchmarkIterPrefix measures sorted prefix scans per engine.
func BenchmarkIterPrefix(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			kv := e.open(b)
			keys := benchKeys(10000)
			seedKV(kv, keys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				kv.IterPrefix("data\x00rec/001", func(string, []byte) bool {
					n++
					return true
				})
				if n != 1000 {
					b.Fatalf("scan saw %d keys", n)
				}
			}
		})
	}
}

// BenchmarkParallelGet measures contended point reads: every goroutine
// reads a shared hot key space, so each engine's read lock is one
// contended word.
func BenchmarkParallelGet(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			kv := e.open(b)
			keys := benchKeys(10000)
			seedKV(kv, keys)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					kv.Get(keys[(i*31)%len(keys)])
					i++
				}
			})
		})
	}
}

// BenchmarkParallelMixedReadCommit is the engine-comparison workload the
// storage refactor targets: concurrent clients read the world state while
// block commits land underneath them — the regime of the paper's
// multi-client store/retrieve evaluation. One in every 16 operations is a
// 10-write block commit; the rest are point reads, and in both engines a
// commit holds off every reader for its duration.
func BenchmarkParallelMixedReadCommit(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			kv := e.open(b)
			keys := benchKeys(10000)
			seedKV(kv, keys)
			val := []byte(`{"label":"car","block":1}`)
			var blockNum atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if i%16 == 15 {
						n := int(blockNum.Add(1))
						batch := make([]Write, 0, 10)
						for j := 0; j < 10; j++ {
							batch = append(batch, Write{Key: keys[(n*10+j)%len(keys)], Value: val})
						}
						kv.ApplyBatch(batch)
					} else {
						kv.Get(keys[(i*31)%len(keys)])
					}
					i++
				}
			})
		})
	}
}
