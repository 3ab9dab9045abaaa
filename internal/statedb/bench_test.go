package statedb

import (
	"fmt"
	"sync/atomic"
	"testing"

	"socialchain/internal/storage"
)

// benchEngines lists the engine configs every statedb benchmark compares.
// The persist config gets a per-run temp directory so WAL writes land in
// the benchmark's own scratch space.
var benchEngines = []struct {
	name string
	cfg  func(b *testing.B) storage.Config
}{
	{"single", func(*testing.B) storage.Config { return storage.Config{Engine: storage.EngineSingle} }},
	{"persist", func(b *testing.B) storage.Config {
		return storage.Config{Engine: storage.EnginePersist, Dir: b.TempDir()}
	}},
}

func seededBenchDB(b *testing.B, cfg storage.Config, keys int) *DB {
	b.Helper()
	db, err := NewWith(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = db.Close() })
	batch := NewUpdateBatch()
	for i := 0; i < keys; i++ {
		doc := fmt.Sprintf(`{"label":"car","confidence":%f,"idx":%d}`, float64(i%100)/100, i)
		batch.Put("data", fmt.Sprintf("rec/%06d", i), []byte(doc))
	}
	applyTx(db, batch, Version{BlockNum: 1})
	return db
}

func benchRecKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("rec/%06d", i)
	}
	return keys
}

func BenchmarkGetState(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			db := seededBenchDB(b, e.cfg(b), 10000)
			keys := benchRecKeys(10000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.GetState("data", keys[i%len(keys)])
			}
		})
	}
}

func BenchmarkApplyOneTxBlock(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			db, err := NewWith(e.cfg(b))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = db.Close() })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := NewUpdateBatch()
				for j := 0; j < 10; j++ {
					batch.Put("data", fmt.Sprintf("k%d-%d", i, j), []byte("value"))
				}
				applyTx(db, batch, Version{BlockNum: uint64(i)})
			}
		})
	}
}

func BenchmarkRangeScan(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			db := seededBenchDB(b, e.cfg(b), 10000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.GetStateRange("data", "rec/001000", "rec/002000")
			}
		})
	}
}

func BenchmarkSelectorQuery(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			db := seededBenchDB(b, e.cfg(b), 2000)
			sel := Selector{"confidence": map[string]any{"$gt": 0.5}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.ExecuteQuery("data", sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// seededIndexedBenchDB spreads `keys` records over 25 labels with the
// production-shaped index set, so one label matches keys/25 records.
func seededIndexedBenchDB(b *testing.B, cfg storage.Config, keys int) *DB {
	b.Helper()
	db, err := NewIndexedWith(cfg,
		IndexSpec{Name: "label", Namespace: "data", Field: "label"},
		IndexSpec{Name: "camera", Namespace: "data", Field: "meta.camera"},
		IndexSpec{Name: "at", Namespace: "data", Field: "at"},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = db.Close() })
	batch := NewUpdateBatch()
	for i := 0; i < keys; i++ {
		doc := fmt.Sprintf(`{"label":"label-%02d","meta":{"camera":"cam-%d"},"at":"2026-07-%02dT10:00:00Z","idx":%d}`,
			i%25, i%10, 1+i%28, i)
		batch.Put("data", fmt.Sprintf("rec/%06d", i), []byte(doc))
	}
	applyTx(db, batch, Version{BlockNum: 1})
	return db
}

// BenchmarkSelectorByLabel measures a selector pinning an indexed field:
// ExecuteQuery scans and JSON-decodes the whole namespace whatever indexes
// exist. Compare with BenchmarkIterIndexPage, the index page the
// label queries read instead.
func BenchmarkSelectorByLabel(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			db := seededIndexedBenchDB(b, e.cfg(b), 10000)
			sel := Selector{"label": "label-07"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := db.ExecuteQuery("data", sel)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != 400 {
					b.Fatalf("got %d results", len(out))
				}
			}
		})
	}
}

// BenchmarkIterIndexPage measures raw index paging (no record fetch).
func BenchmarkIterIndexPage(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			db := seededIndexedBenchDB(b, e.cfg(b), 10000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page, err := db.IterIndex("label", "label-07", 100, 0, "")
				if err != nil {
					b.Fatal(err)
				}
				if len(page.Entries) != 100 {
					b.Fatalf("got %d entries", len(page.Entries))
				}
			}
		})
	}
}

// BenchmarkParallelMixedReadCommit compares engines under the paper's
// concurrent-clients regime at the world-state level: parallel GetState
// traffic with block commits (applyTx) landing underneath. One in 16
// operations commits a 10-write block.
func BenchmarkParallelMixedReadCommit(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			db := seededBenchDB(b, e.cfg(b), 10000)
			keys := benchRecKeys(10000)
			var blockNum atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if i%16 == 15 {
						n := blockNum.Add(1)
						batch := NewUpdateBatch()
						for j := 0; j < 10; j++ {
							batch.Put("data", keys[(int(n)*10+j)%len(keys)], []byte(`{"label":"car"}`))
						}
						applyTx(db, batch, Version{BlockNum: n})
					} else {
						db.GetState("data", keys[(i*31)%len(keys)])
					}
					i++
				}
			})
		})
	}
}

// benchRecord is a data-contract record as addData writes it: a CID, the
// denormalised label and source, and the metadata blob with detections.
func benchRecord(i int) string {
	return fmt.Sprintf(`{"tx_id":"tx-%[1]d.0","cid":"bafkreihdwdcefgh4dqkjv67uzcmw7ojee6xedzdetojuzjevtenxquvyku",`+
		`"label":"truck","source":"org1/cam-%[2]d","source_role":"trusted-source","metadata":{"frame_id":"iudx-blr-000/frame-%[1]05d",`+
		`"video_id":"iudx-blr-000","camera_id":"cam-%[2]03d","platform":"static","detections":[`+
		`{"label":"auto-rickshaw","confidence":0.8393683151566947,"bounding_box":{"x1":509,"y1":382,"x2":1076,"y2":469},`+
		`"timestamp":"2024-07-10T05:00:00Z","color":"blue","location":{"latitude":12.909913679197505,"longitude":77.58829251648572}},`+
		`{"label":"truck","confidence":0.897930450851046,"bounding_box":{"x1":618,"y1":382,"x2":1112,"y2":573},`+
		`"timestamp":"2024-07-10T05:00:00Z","color":"red","location":{"latitude":12.909919415539362,"longitude":77.58827189266667}}],`+
		`"captured_at":"2024-07-10T05:00:00Z","extracted_at":"2026-10-17T17:44:29.808202332Z","size_bytes":3257,`+
		`"data_hash":"1464537c1a457521c686a58ff85d032ade4a1f355b0ba4add7915430114c26a2",`+
		`"location":{"latitude":12.909912091120104,"longitude":77.58828262446488}},`+
		`"data_hash":"1464537c1a457521c686a58ff85d032ade4a1f355b0ba4add7915430114c26a2","size_bytes":4096,`+
		`"submitted":"2026-10-17T17:44:29.8%[1]08dZ","prev_tx_id":"tx-%[3]d.0","seq":%[1]d}`, i, i%4, i-1)
}

// BenchmarkIndexUpkeep times the commit of one 100-record block of
// data-contract writes (each record plus its source's provenance head)
// under the data contract's four indexes: index upkeep reads each
// written key's old value and extracts the indexed fields of both.
func BenchmarkIndexUpkeep(b *testing.B) {
	db, err := NewIndexedWith(storage.Config{Engine: storage.EnginePersist, Dir: b.TempDir()}, dataIndexPaths()...)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		batch := NewUpdateBatch()
		for i := n * 100; i < (n+1)*100; i++ {
			batch.Put("data", fmt.Sprintf("rec/tx-%d.0", i), []byte(benchRecord(i)))
			batch.Put("data", fmt.Sprintf("head/org1/cam-%d", i%4), []byte(fmt.Sprintf(`{"seq":%d,"tx_id":"tx-%d.0"}`, i, i)))
		}
		db.ApplyBlockAt([]TxUpdate{{Batch: batch, Version: Version{BlockNum: uint64(n + 1)}}}, uint64(n+1))
	}
}
