package statedb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"socialchain/internal/storage"
)

// testIndexes is the spec set the index tests run under, shaped like the
// data-namespace production set (top-level, nested and time fields).
func testIndexes() []IndexSpec {
	return []IndexSpec{
		{Name: "label", Namespace: "data", Field: "label"},
		{Name: "camera", Namespace: "data", Field: "meta.camera"},
		{Name: "at", Namespace: "data", Field: "at"},
	}
}

func indexedTestDB(t *testing.T, cfg storage.Config) *DB {
	t.Helper()
	db, err := NewIndexedWith(cfg, testIndexes()...)
	if err != nil {
		t.Fatal(err)
	}
	// Registered after the caller's TempDir, so it runs before the
	// directory's removal: no flush outlives the test.
	t.Cleanup(func() { db.Close() })
	return db
}

func putDoc(db *DB, block uint64, key, doc string) {
	b := NewUpdateBatch()
	b.Put("data", key, []byte(doc))
	applyTx(db, b, Version{BlockNum: block})
}

func TestIndexSpecValidation(t *testing.T) {
	if _, err := NewIndexedWith(storage.Config{}, IndexSpec{Name: "", Namespace: "ns", Field: "f"}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewIndexedWith(storage.Config{},
		IndexSpec{Name: "dup", Namespace: "ns", Field: "a"},
		IndexSpec{Name: "dup", Namespace: "ns", Field: "b"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewIndexedWith(storage.Config{}, IndexSpec{Name: "x\x00y", Namespace: "ns", Field: "f"}); err == nil {
		t.Fatal("NUL in name accepted")
	}
}

func TestIndexMaintenance(t *testing.T) {
	db := indexedTestDB(t, storage.Config{})
	putDoc(db, 1, "rec/1", `{"label":"car","meta":{"camera":"c1"}}`)
	putDoc(db, 2, "rec/2", `{"label":"car"}`)
	putDoc(db, 3, "rec/3", `{"label":"bus","meta":{"camera":"c1"}}`)

	page, err := db.IterIndex("label", "car", 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 2 || page.Entries[0].Key != "rec/1" || page.Entries[1].Key != "rec/2" {
		t.Fatalf("car entries = %+v", page.Entries)
	}
	if page.Next != "" {
		t.Fatalf("unexpected continuation token %q", page.Next)
	}

	// Overwrite flips rec/1 from car to bus; delete drops rec/3 entirely.
	putDoc(db, 4, "rec/1", `{"label":"bus","meta":{"camera":"c2"}}`)
	b := NewUpdateBatch()
	b.Delete("data", "rec/3")
	applyTx(db, b, Version{BlockNum: 5})

	page, _ = db.IterIndex("label", "car", 0, 0, "")
	if len(page.Entries) != 1 || page.Entries[0].Key != "rec/2" {
		t.Fatalf("after overwrite, car = %+v", page.Entries)
	}
	page, _ = db.IterIndex("label", "bus", 0, 0, "")
	if len(page.Entries) != 1 || page.Entries[0].Key != "rec/1" {
		t.Fatalf("after delete, bus = %+v", page.Entries)
	}
	page, _ = db.IterIndex("camera", "c2", 0, 0, "")
	if len(page.Entries) != 1 || page.Entries[0].Key != "rec/1" {
		t.Fatalf("nested-field index = %+v", page.Entries)
	}
}

func TestIndexIgnoresNonStringAndNonObjectValues(t *testing.T) {
	db := indexedTestDB(t, storage.Config{})
	putDoc(db, 1, "rec/num", `{"label":7}`)
	putDoc(db, 1, "rec/arr", `[1,2,3]`)
	putDoc(db, 1, "rec/raw", `not json`)
	putDoc(db, 1, "rec/ok", `{"label":"car"}`)
	page, err := db.IterIndex("label", "", 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 || page.Entries[0].Key != "rec/ok" {
		t.Fatalf("entries = %+v", page.Entries)
	}
}

func TestIterIndexPagination(t *testing.T) {
	db := indexedTestDB(t, storage.Config{})
	for i := 0; i < 10; i++ {
		putDoc(db, uint64(i+1), fmt.Sprintf("rec/%02d", i), fmt.Sprintf(`{"label":"L%d"}`, i%2))
	}
	// Page through label L0 (rec/00,02,04,06,08) two at a time via tokens.
	var got []string
	token := ""
	pages := 0
	for {
		page, err := db.IterIndex("label", "L0", 2, 0, token)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range page.Entries {
			got = append(got, e.Key)
		}
		pages++
		if page.Next == "" {
			break
		}
		token = page.Next
	}
	want := []string{"rec/00", "rec/02", "rec/04", "rec/06", "rec/08"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged keys = %v, want %v", got, want)
	}
	if pages < 3 {
		t.Fatalf("expected >= 3 pages of 2, got %d", pages)
	}
	// Offset skips from the front.
	page, err := db.IterIndex("label", "L0", 2, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 2 || page.Entries[0].Key != "rec/06" {
		t.Fatalf("offset page = %+v", page.Entries)
	}
	// Unknown index and bad token are errors.
	if _, err := db.IterIndex("nope", "", 0, 0, ""); err == nil {
		t.Fatal("unknown index accepted")
	}
	if _, err := db.IterIndex("label", "", 0, 0, "zz-not-hex"); err == nil {
		t.Fatal("bad token accepted")
	}
}

func TestIterIndexTimeOrdered(t *testing.T) {
	db := indexedTestDB(t, storage.Config{})
	putDoc(db, 1, "rec/b", `{"at":"2026-07-30T10:00:00Z"}`)
	putDoc(db, 2, "rec/a", `{"at":"2026-07-30T12:00:00Z"}`)
	putDoc(db, 3, "rec/c", `{"at":"2026-07-29T09:00:00Z"}`)
	page, err := db.IterIndex("at", "", 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"rec/c", "rec/b", "rec/a"} // chronological, not key, order
	for i, e := range page.Entries {
		if e.Key != want[i] {
			t.Fatalf("time order = %+v, want %v", page.Entries, want)
		}
	}
}

func TestBuildIndexesRebuildsFromExistingState(t *testing.T) {
	db := New()
	putDoc(db, 1, "rec/1", `{"label":"car"}`)
	putDoc(db, 2, "rec/2", `{"label":"bus"}`)
	if err := db.BuildIndexes(testIndexes()...); err != nil {
		t.Fatal(err)
	}
	page, err := db.IterIndex("label", "car", 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 || page.Entries[0].Key != "rec/1" {
		t.Fatalf("rebuilt index = %+v", page.Entries)
	}
}

func TestRestoreRebuildsIndexes(t *testing.T) {
	src := indexedTestDB(t, storage.Config{})
	putDoc(src, 1, "rec/1", `{"label":"car"}`)
	putDoc(src, 2, "rec/2", `{"label":"car"}`)

	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := indexedTestDB(t, storage.Config{})
	if _, err := dst.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	page, err := dst.IterIndex("label", "car", 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 2 {
		t.Fatalf("restored index = %+v", page.Entries)
	}
}

// TestExecuteQueryShortCircuitEqualsScan: an indexed database answers
// every selector exactly as its index-free twin does, on both engines —
// index upkeep under the reserved prefix never shows in a query.
func TestExecuteQueryShortCircuitEqualsScan(t *testing.T) {
	for _, engCfg := range []storage.Config{
		{Engine: storage.EngineSingle},
		{Engine: storage.EnginePersist, Dir: t.TempDir()},
	} {
		db := indexedTestDB(t, engCfg)
		plain, err := NewWith(storage.Config{Engine: storage.EngineSingle}) // index-free twin
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		labels := []string{"car", "bus", "truck", "bike", "x\x00nul", ""}
		cameras := []string{"c1", "c2", "c3"}
		for blk := uint64(1); blk <= 20; blk++ {
			b := NewUpdateBatch()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("rec/%03d", rng.Intn(400))
				switch rng.Intn(10) {
				case 0:
					b.Delete("data", key)
				case 1:
					// Numeric label: indexable field with non-string value.
					b.Put("data", key, []byte(fmt.Sprintf(`{"label":%d,"n":%d}`, rng.Intn(3), rng.Intn(100))))
				case 2:
					b.Put("data", key, []byte(`"just a string"`))
				default:
					doc, err := json.Marshal(map[string]any{
						"label": labels[rng.Intn(len(labels))],
						"meta":  map[string]any{"camera": cameras[rng.Intn(len(cameras))]},
						"at":    fmt.Sprintf("2026-07-%02dT0%d:00:00Z", 1+rng.Intn(28), rng.Intn(10)),
						"n":     rng.Intn(100),
					})
					if err != nil {
						t.Fatal(err)
					}
					b.Put("data", key, doc)
				}
			}
			applyTx(db, b, Version{BlockNum: blk})
			applyTx(plain, b, Version{BlockNum: blk})
		}
		selectors := []Selector{
			{"label": "car"},
			{"label": "x\x00nul"}, // NUL bytes in the value
			{"label": ""},
			{"label": "car", "meta.camera": "c2"},
			{"label": map[string]any{"$eq": "bus"}},
			{"label": map[string]any{"$in": []any{"car", "bike"}}},
			{"label": map[string]any{"$in": []any{"car", float64(1)}}}, // mixed list
			{"at": map[string]any{"$gte": "2026-07-10", "$lt": "2026-07-20"}},
			{"at": map[string]any{"$gt": "2026-07-15T05:00:00Z"}},
			{"meta.camera": "c1", "n": map[string]any{"$gte": float64(50)}},
			{"label": map[string]any{"$ne": "car"}}, // negated pin
			{"n": map[string]any{"$lt": float64(10)}},
		}
		for _, sel := range selectors {
			indexed, err := db.ExecuteQuery("data", sel)
			if err != nil {
				t.Fatalf("engine %s sel %v: indexed: %v", engCfg.Engine, sel, err)
			}
			scanned, err := plain.ExecuteQuery("data", sel)
			if err != nil {
				t.Fatalf("engine %s sel %v: index-free: %v", engCfg.Engine, sel, err)
			}
			if !sameKVs(indexed, scanned) {
				t.Fatalf("engine %s sel %v: indexed %d results, index-free %d",
					engCfg.Engine, sel, len(indexed), len(scanned))
			}
		}
	}
}

func sameKVs(a, b []KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || string(a[i].Value) != string(b[i].Value) {
			return false
		}
	}
	return true
}

func TestEscapeIndexValueRoundTrip(t *testing.T) {
	for _, s := range []string{"", "plain", "a\x00b", "\x01", "\x00\x01\x00", "a\x01\x01b"} {
		esc := escapeIndexValue(s)
		for i := 0; i < len(esc); i++ {
			if esc[i] == 0 {
				t.Fatalf("escape(%q) contains NUL", s)
			}
		}
		if got := unescapeIndexValue(esc); got != s {
			t.Fatalf("round trip %q -> %q -> %q", s, esc, got)
		}
	}
}

// indexSavepointFixture commits three blocks into a durable indexed
// database, closes it, and plants an index entry in its engine that no
// state document backs: a rebuild drops it, a reused index still has it.
func indexSavepointFixture(t *testing.T) storage.Config {
	t.Helper()
	cfg := storage.Config{Engine: storage.EnginePersist, Dir: t.TempDir()}
	db := indexedTestDB(t, cfg)
	for n := uint64(1); n <= 3; n++ {
		b := NewUpdateBatch()
		b.Put("data", fmt.Sprintf("rec/%d", n), []byte(`{"label":"car"}`))
		db.ApplyBlockAt([]TxUpdate{{Batch: b, Version: Version{BlockNum: n}}}, n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	kv, err := storage.Open(storage.Config{Engine: storage.EnginePersist, Dir: filepath.Join(cfg.Dir, "db")})
	if err != nil {
		t.Fatal(err)
	}
	kv.ApplyBatch([]storage.Write{{Key: entryKey("label", "planted", "rec/none")}})
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func indexKeys(t *testing.T, db *DB, index, value string) []string {
	t.Helper()
	page, err := db.IterIndex(index, value, 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range page.Entries {
		keys = append(keys, e.Key)
	}
	return keys
}

// TestIndexSavepointDecidesRebuild: index entries ride the state's own
// batches, so the spec list they were built for alone decides whether an
// open reuses them. The same list reuses; an open with no indexes (whose
// state batches carry no index entries) drops them, so the next indexed
// open rebuilds; a changed list rebuilds.
func TestIndexSavepointDecidesRebuild(t *testing.T) {
	t.Run("in step: reused", func(t *testing.T) {
		cfg := indexSavepointFixture(t)
		db := indexedTestDB(t, cfg)
		defer db.Close()
		if got := indexKeys(t, db, "label", "planted"); len(got) != 1 {
			t.Fatalf("index was rebuilt although built for this spec list (planted entry: %v)", got)
		}
		if got := indexKeys(t, db, "label", "car"); len(got) != 3 {
			t.Fatalf("reused index lists %v under car, want 3 records", got)
		}
		// A reused index keeps absorbing blocks.
		b := NewUpdateBatch()
		b.Put("data", "rec/4", []byte(`{"label":"car"}`))
		db.ApplyBlockAt([]TxUpdate{{Batch: b, Version: Version{BlockNum: 4}}}, 4)
		if got := indexKeys(t, db, "label", "car"); len(got) != 4 {
			t.Fatalf("after one more block the index lists %v", got)
		}
	})
	t.Run("state batch without its index batch: rebuilt", func(t *testing.T) {
		cfg := indexSavepointFixture(t)
		// Block 4 lands through an open without indexes: its batch carries
		// no index entries.
		bare, err := NewWith(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := NewUpdateBatch()
		b.Put("data", "rec/4", []byte(`{"label":"bus"}`))
		b.Delete("data", "rec/1")
		bare.ApplyBlockAt([]TxUpdate{{Batch: b, Version: Version{BlockNum: 4}}}, 4)
		if err := bare.Close(); err != nil {
			t.Fatal(err)
		}
		db := indexedTestDB(t, cfg)
		defer db.Close()
		if got := indexKeys(t, db, "label", "planted"); len(got) != 0 {
			t.Fatalf("index maintained by nobody for a block was reused (planted entry: %v)", got)
		}
		if got := indexKeys(t, db, "label", "bus"); !reflect.DeepEqual(got, []string{"rec/4"}) {
			t.Fatalf("rebuilt index lists %v under bus", got)
		}
		if got := indexKeys(t, db, "label", "car"); !reflect.DeepEqual(got, []string{"rec/2", "rec/3"}) {
			t.Fatalf("rebuilt index lists %v under car", got)
		}
		// The rebuild recorded its spec list: the next open reuses.
		if !db.idx.inStep() {
			t.Fatal("rebuilt index is not in step with the state")
		}
	})
	t.Run("changed specs: rebuilt", func(t *testing.T) {
		cfg := indexSavepointFixture(t)
		db, err := NewIndexedWith(cfg, IndexSpec{Name: "label", Namespace: "data", Field: "label"})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if got := indexKeys(t, db, "label", "planted"); len(got) != 0 {
			t.Fatalf("index built for another spec list was reused (planted entry: %v)", got)
		}
		if got := indexKeys(t, db, "label", "car"); len(got) != 3 {
			t.Fatalf("rebuilt index lists %v under car", got)
		}
	})
}

// dataIndexPaths are the four Field paths of contracts.DataIndexes (the
// contracts package imports this one, so they are spelled out here).
func dataIndexPaths() []IndexSpec {
	return []IndexSpec{
		{Name: "label", Namespace: "data", Field: "label"},
		{Name: "source", Namespace: "data", Field: "source"},
		{Name: "camera", Namespace: "data", Field: "metadata.camera_id"},
		{Name: "submitted", Namespace: "data", Field: "submitted"},
	}
}

// FuzzIndexField holds indexFields to the decoder it replaced: whatever
// the bytes, each path yields the string json.Unmarshal into a
// map[string]any, lookupField and a string assertion would, or nothing
// where they find none.
func FuzzIndexField(f *testing.F) {
	for _, seed := range []string{
		benchRecord(0),
		`{"label":"car","label":"bus"}`,
		`{"label":"car","label":7}`,
		`{"metadata":{"camera_id":"c1"},"metadata":{"camera_id":"c2","camera_id":"c3"}}`,
		`{"metadata":{"camera_id":"c1"},"metadata":"flat"}`,
		`{"label":"car","source":"s\"1\\","metadata":{"camera_id":"🚗"}}`,
		`{"\u006cabel":"car","lab\u0065l":"bus","\u0073ource":"\u0073\ud800\n","metadata":{"camera\u005fid":"c"}}`,
		" \t\r\n{ \"label\" :\n\"car\" , \"submitted\":\t\"2024\" } \n",
		`["label","car"]`, `"car"`, `7`, `null`, `true`, `{}`,
		`{"label":null,"source":{"x":"y"},"metadata":[{"camera_id":"c"}]}`,
		`{"metadata":null}`, `{"metadata":7}`,
		"{\"label\":\"ca\xffr\",\"\xfesource\":\"s\",\"source\":\"\xc3\"}",
		`{"label":"car","size":1e999}`, `{"label":"car","x":[-1.5E-400,2e308,0.5]}`,
		`{"label":"car"`, `{"label":"car"}x`, ``,
	} {
		f.Add([]byte(seed))
	}
	specs := dataIndexPaths()
	f.Fuzz(func(t *testing.T, value []byte) {
		got := indexFields(value, specs)
		var doc map[string]any
		if json.Unmarshal(value, &doc) != nil {
			doc = nil
		}
		for i, spec := range specs {
			var want indexed
			if v, ok := lookupField(doc, spec.Field); ok {
				want.v, want.ok = v.(string)
			}
			if got[i] != want {
				t.Fatalf("%s in %q: got %+v, the decoder finds %+v", spec.Field, value, got[i], want)
			}
		}
	})
}
