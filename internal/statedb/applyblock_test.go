package statedb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// applyTx commits one transaction's batch at version v as a block of its
// own.
func applyTx(db *DB, b *UpdateBatch, v Version) {
	db.ApplyBlockAt([]TxUpdate{{Batch: b, Version: v}}, v.BlockNum)
}

// dumpState captures every (key, value, version) of a namespace.
func dumpState(db *DB, ns string) []KV {
	return db.GetStateRange(ns, "", "")
}

// dumpIndex captures every entry of an index.
func dumpIndex(t *testing.T, db *DB, name string) []IndexEntry {
	t.Helper()
	var out []IndexEntry
	token := ""
	for {
		page, err := db.IterIndex(name, "", 100, 0, token)
		if err != nil {
			t.Fatalf("IterIndex %s: %v", name, err)
		}
		out = append(out, page.Entries...)
		if page.Next == "" {
			return out
		}
		token = page.Next
	}
}

// TestApplyBlockEquivalentToSequentialApplies drives randomized blocks of
// per-transaction batches (with intra-block same-key collisions and
// deletes) through one ApplyBlockAt per block on one DB and one per
// transaction on another, under each engine configuration, and requires
// identical state and identical secondary indexes.
func TestApplyBlockEquivalentToSequentialApplies(t *testing.T) {
	specs := []IndexSpec{{Name: "by-label", Namespace: "data", Field: "label"}}
	for _, e := range engineConfigs {
		t.Run(e.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			open := func() *DB {
				db, err := NewIndexedWith(e.cfg, specs...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				return db
			}
			seq, blk := open(), open()
			keys := make([]string, 24)
			for i := range keys {
				keys[i] = fmt.Sprintf("rec/%03d", i)
			}
			for block := uint64(1); block <= 30; block++ {
				ntx := 1 + rng.Intn(6)
				updates := make([]TxUpdate, 0, ntx)
				for txn := 0; txn < ntx; txn++ {
					b := NewUpdateBatch()
					for w := 0; w < 1+rng.Intn(4); w++ {
						key := keys[rng.Intn(len(keys))]
						if rng.Intn(5) == 0 {
							b.Delete("data", key)
							continue
						}
						doc := fmt.Sprintf(`{"label":"label-%d","n":%d}`, rng.Intn(4), rng.Int())
						b.Put("data", key, []byte(doc))
					}
					updates = append(updates, TxUpdate{
						Batch:   b,
						Version: Version{BlockNum: block, TxNum: uint64(txn)},
					})
				}
				for _, u := range updates {
					applyTx(seq, u.Batch, u.Version)
				}
				blk.ApplyBlockAt(updates, block)

				if got, want := dumpState(blk, "data"), dumpState(seq, "data"); !reflect.DeepEqual(got, want) {
					t.Fatalf("block %d: state diverged:\n got %v\nwant %v", block, got, want)
				}
				if got, want := dumpIndex(t, blk, "by-label"), dumpIndex(t, seq, "by-label"); !reflect.DeepEqual(got, want) {
					t.Fatalf("block %d: index diverged:\n got %v\nwant %v", block, got, want)
				}
			}
		})
	}
}

// TestApplyBlockEmptyAndSingle covers the fast paths.
func TestApplyBlockEmptyAndSingle(t *testing.T) {
	db := newDB(t)
	db.ApplyBlockAt(nil, 2) // must not panic
	b := NewUpdateBatch()
	b.Put("ns", "k", []byte("v"))
	db.ApplyBlockAt([]TxUpdate{{Batch: b, Version: Version{BlockNum: 3, TxNum: 7}}}, 3)
	vv, ok := db.GetState("ns", "k")
	if !ok || string(vv.Value) != "v" {
		t.Fatalf("GetState after a single-update block: %v %v", vv, ok)
	}
	if vv.Version != (Version{BlockNum: 3, TxNum: 7}) {
		t.Fatalf("version = %+v", vv.Version)
	}
}

// TestApplyBlockKeepsPerTxVersions checks that each surviving write
// carries the version of the transaction that produced it, and that a
// later transaction's write to the same key wins with its own version.
func TestApplyBlockKeepsPerTxVersions(t *testing.T) {
	db := newDB(t)
	b0 := NewUpdateBatch()
	b0.Put("ns", "a", []byte("a0"))
	b0.Put("ns", "shared", []byte("first"))
	b1 := NewUpdateBatch()
	b1.Put("ns", "b", []byte("b1"))
	b1.Put("ns", "shared", []byte("second"))
	db.ApplyBlockAt([]TxUpdate{
		{Batch: b0, Version: Version{BlockNum: 5, TxNum: 0}},
		{Batch: b1, Version: Version{BlockNum: 5, TxNum: 1}},
	}, 5)
	for _, tc := range []struct {
		key, val string
		txn      uint64
	}{
		{"a", "a0", 0},
		{"b", "b1", 1},
		{"shared", "second", 1},
	} {
		vv, ok := db.GetState("ns", tc.key)
		if !ok || string(vv.Value) != tc.val {
			t.Fatalf("key %s: got %q ok=%v, want %q", tc.key, vv.Value, ok, tc.val)
		}
		if vv.Version != (Version{BlockNum: 5, TxNum: tc.txn}) {
			t.Fatalf("key %s: version %+v, want txn %d", tc.key, vv.Version, tc.txn)
		}
	}
}
