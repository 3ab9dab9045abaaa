package statedb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"socialchain/internal/storage"
)

// newDB is New for a test: the DB closes, and its temporary directory
// goes, when the test ends.
func newDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	t.Cleanup(func() {
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
	return db
}

// engineConfigs are the engine configurations equivalence tests compare:
// the defaults, and a 256-byte memtable with fanout 2, whose writes cross
// flushes and compactions within a few blocks.
var engineConfigs = []struct {
	name string
	cfg  storage.Config
}{
	{"persist", storage.Config{}},
	{"persist-small", storage.Config{MemtableBytes: 256, CompactFanout: 2}},
}

func TestGetPutRoundTrip(t *testing.T) {
	db := newDB(t)
	batch := NewUpdateBatch()
	batch.Put("cc", "k1", []byte("v1"))
	applyTx(db, batch, Version{BlockNum: 1, TxNum: 0})

	vv, ok := db.GetState("cc", "k1")
	if !ok || string(vv.Value) != "v1" {
		t.Fatalf("get = %v %q", ok, vv.Value)
	}
	if vv.Version != (Version{BlockNum: 1, TxNum: 0}) {
		t.Fatalf("version = %v", vv.Version)
	}
}

func TestNamespaceIsolation(t *testing.T) {
	db := newDB(t)
	b := NewUpdateBatch()
	b.Put("ns1", "k", []byte("a"))
	b.Put("ns2", "k", []byte("b"))
	applyTx(db, b, Version{BlockNum: 1})
	v1, _ := db.GetState("ns1", "k")
	v2, _ := db.GetState("ns2", "k")
	if string(v1.Value) != "a" || string(v2.Value) != "b" {
		t.Fatal("namespaces bleed")
	}
	if _, ok := db.GetState("ns3", "k"); ok {
		t.Fatal("phantom namespace")
	}
}

func TestDeleteRemovesKey(t *testing.T) {
	db := newDB(t)
	b := NewUpdateBatch()
	b.Put("cc", "k", []byte("v"))
	applyTx(db, b, Version{BlockNum: 1})
	b2 := NewUpdateBatch()
	b2.Delete("cc", "k")
	applyTx(db, b2, Version{BlockNum: 2})
	if _, ok := db.GetState("cc", "k"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestBatchLastWriteWins(t *testing.T) {
	db := newDB(t)
	b := NewUpdateBatch()
	b.Put("cc", "k", []byte("first"))
	b.Put("cc", "k", []byte("second"))
	if b.Len() != 1 {
		t.Fatalf("batch len %d", b.Len())
	}
	applyTx(db, b, Version{BlockNum: 1})
	vv, _ := db.GetState("cc", "k")
	if string(vv.Value) != "second" {
		t.Fatalf("value %q", vv.Value)
	}
}

func TestRangeScan(t *testing.T) {
	db := newDB(t)
	b := NewUpdateBatch()
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		b.Put("cc", k, []byte(k))
	}
	applyTx(db, b, Version{BlockNum: 1})

	got := db.GetStateRange("cc", "b", "d")
	if len(got) != 2 || got[0].Key != "b" || got[1].Key != "c" {
		t.Fatalf("range [b,d) = %+v", got)
	}
	all := db.GetStateRange("cc", "", "")
	if len(all) != 5 {
		t.Fatalf("open range returned %d", len(all))
	}
	from := db.GetStateRange("cc", "c", "")
	if len(from) != 3 {
		t.Fatalf("range [c,∞) returned %d", len(from))
	}
}

func TestRangeScanSortedProperty(t *testing.T) {
	err := quick.Check(func(keys []string) bool {
		db := newDB(t)
		b := NewUpdateBatch()
		for _, k := range keys {
			if k == "" {
				continue
			}
			b.Put("cc", k, []byte("v"))
		}
		applyTx(db, b, Version{BlockNum: 1})
		got := db.GetStateRange("cc", "", "")
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Key < got[j].Key })
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrefixScan(t *testing.T) {
	db := newDB(t)
	b := NewUpdateBatch()
	for _, k := range []string{"user/alice", "user/bob", "admin/root"} {
		b.Put("cc", k, []byte("v"))
	}
	applyTx(db, b, Version{BlockNum: 1})
	got := db.GetStateRange("cc", "user/", "user0") // '0' follows '/'

	if len(got) != 2 {
		t.Fatalf("prefix scan = %d entries", len(got))
	}
}

func TestVersionCompare(t *testing.T) {
	cases := []struct {
		a, b Version
		want int
	}{
		{Version{1, 0}, Version{1, 0}, 0},
		{Version{1, 0}, Version{1, 1}, -1},
		{Version{2, 0}, Version{1, 9}, 1},
		{Version{1, 5}, Version{1, 2}, 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRWSetDigestDeterministic(t *testing.T) {
	rw := RWSet{
		Reads:  []ReadItem{{Namespace: "cc", Key: "a", Version: Version{1, 0}, Exists: true}},
		Writes: []WriteItem{{Namespace: "cc", Key: "b", Value: []byte("v")}},
	}
	if !bytes.Equal(rw.Digest([]byte("r")), rw.Digest([]byte("r"))) {
		t.Fatal("digest unstable")
	}
	if bytes.Equal(rw.Digest([]byte("r")), rw.Digest([]byte("other"))) {
		t.Fatal("digest ignores response")
	}
	rw2 := rw
	rw2.Writes = []WriteItem{{Namespace: "cc", Key: "b", Value: []byte("v2")}}
	if bytes.Equal(rw.Digest([]byte("r")), rw2.Digest([]byte("r"))) {
		t.Fatal("digest ignores writes")
	}
}

func TestSelectorEquality(t *testing.T) {
	db := seedDocs(t)
	got, err := db.ExecuteQuery("cc", Selector{"label": "truck"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("matched %d", len(got))
	}
}

func TestSelectorOperators(t *testing.T) {
	db := seedDocs(t)
	cases := []struct {
		sel  Selector
		want int
	}{
		{Selector{"confidence": map[string]any{"$gt": 0.5}}, 2},
		{Selector{"confidence": map[string]any{"$gte": 0.41}}, 3},
		{Selector{"confidence": map[string]any{"$lt": 0.5}}, 1},
		{Selector{"confidence": map[string]any{"$lte": 0.9, "$gt": 0.45}}, 2},
		{Selector{"label": map[string]any{"$ne": "truck"}}, 1},
		{Selector{"label": map[string]any{"$in": []any{"car", "bus"}}}, 1},
		{Selector{"label": map[string]any{"$eq": "truck"}}, 2},
		{Selector{"missing": map[string]any{"$exists": false}}, 3},
		{Selector{"label": map[string]any{"$exists": true}}, 3},
		{Selector{"location.latitude": map[string]any{"$gt": 12.0}}, 3},
		{Selector{"label": "truck", "confidence": map[string]any{"$gt": 0.8}}, 1},
	}
	for i, c := range cases {
		got, err := db.ExecuteQuery("cc", c.sel)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != c.want {
			t.Errorf("case %d matched %d, want %d", i, len(got), c.want)
		}
	}
}

func TestSelectorBadOperator(t *testing.T) {
	db := seedDocs(t)
	if _, err := db.ExecuteQuery("cc", Selector{"label": map[string]any{"$regex": "t.*"}}); err == nil {
		t.Fatal("unsupported operator accepted")
	}
	if _, err := db.ExecuteQuery("cc", Selector{"label": map[string]any{"$in": "notalist"}}); err == nil {
		t.Fatal("$in with non-list accepted")
	}
}

func TestSelectorSkipsNonJSON(t *testing.T) {
	db := newDB(t)
	b := NewUpdateBatch()
	b.Put("cc", "binary", []byte{0xff, 0xfe})
	b.Put("cc", "doc", mustJSON(map[string]any{"label": "x"}))
	applyTx(db, b, Version{BlockNum: 1})
	got, err := db.ExecuteQuery("cc", Selector{"label": "x"})
	if err != nil || len(got) != 1 {
		t.Fatalf("got %d err %v", len(got), err)
	}
}

func seedDocs(t *testing.T) *DB {
	t.Helper()
	db := newDB(t)
	b := NewUpdateBatch()
	docs := []map[string]any{
		{"label": "truck", "confidence": 0.41, "location": map[string]any{"latitude": 12.97, "longitude": 77.59}},
		{"label": "truck", "confidence": 0.88, "location": map[string]any{"latitude": 12.95, "longitude": 77.60}},
		{"label": "car", "confidence": 0.70, "location": map[string]any{"latitude": 13.00, "longitude": 77.58}},
	}
	for i, d := range docs {
		b.Put("cc", fmt.Sprintf("doc%d", i), mustJSON(d))
	}
	applyTx(db, b, Version{BlockNum: 1})
	return db
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func TestNamespacesListing(t *testing.T) {
	db := newDB(t)
	b := NewUpdateBatch()
	b.Put("zz", "k", []byte("v"))
	b.Put("aa", "k", []byte("v"))
	applyTx(db, b, Version{BlockNum: 1})
	ns := db.Namespaces()
	if len(ns) != 2 || ns[0] != "aa" || ns[1] != "zz" {
		t.Fatalf("namespaces = %v", ns)
	}
	if got := len(db.GetStateRange("aa", "", "")); got != 1 {
		t.Fatalf("namespace aa holds %d keys", got)
	}
}

func TestValueCopiedOnWrite(t *testing.T) {
	db := newDB(t)
	val := []byte("mutable")
	b := NewUpdateBatch()
	b.Put("cc", "k", val)
	applyTx(db, b, Version{BlockNum: 1})
	val[0] = 'X'
	vv, _ := db.GetState("cc", "k")
	if vv.Value[0] == 'X' {
		t.Fatal("db aliases caller buffer")
	}
}

// TestEnginesProduceIdenticalSnapshots commits the same batches through
// both engine configurations and requires byte-identical snapshot streams
// — where a key lies, memtable or which table level, must never change
// observable state or iteration order.
func TestEnginesProduceIdenticalSnapshots(t *testing.T) {
	build := func(cfg storage.Config) *DB {
		db, err := NewWith(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for blk := uint64(1); blk <= 5; blk++ {
			b := NewUpdateBatch()
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("key/%03d", (int(blk)*7+i*3)%60)
				if (int(blk)+i)%5 == 0 {
					b.Delete("cc", key)
				} else {
					b.Put("cc", key, []byte(fmt.Sprintf("v%d-%d", blk, i)))
				}
				b.Put(fmt.Sprintf("ns%d", i%3), key, []byte("x"))
			}
			applyTx(db, b, Version{BlockNum: blk})
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	var dbs [2]*DB
	for i, e := range engineConfigs {
		dbs[i] = build(e.cfg)
	}
	// The small engine's flushes make a compaction due; the compactor
	// runs it in the background.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, _ := dbs[1].StorageStats()
		if st.Flushes > 0 && st.Compactions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("test setup: the small engine made %d flushes and %d compactions, want both", st.Flushes, st.Compactions)
		}
	}
	var snaps [2]bytes.Buffer
	for i, db := range dbs {
		if err := db.Snapshot(&snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		t.Fatal("snapshot streams differ between engine configurations")
	}
	db := dbs[0]
	if got := len(db.GetStateRange("cc", "", "")); got == 0 {
		t.Fatal("no keys survived")
	}
	if ns := db.Namespaces(); len(ns) != 4 {
		t.Fatalf("namespaces = %v", ns)
	}
}
