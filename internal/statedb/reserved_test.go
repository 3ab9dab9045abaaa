package statedb

import (
	"fmt"
	"strings"
	"testing"

	"socialchain/internal/storage"
)

// visitLog is a storage.KV that records every key a point read or an
// iteration hands back to its caller.
type visitLog struct {
	storage.KV
	visited []string
}

func (v *visitLog) Get(key string) ([]byte, bool) {
	v.visited = append(v.visited, key)
	return v.KV.Get(key)
}

func (v *visitLog) IterPrefix(prefix string, fn func(key string, value []byte) bool) {
	v.KV.IterPrefix(prefix, func(key string, value []byte) bool {
		v.visited = append(v.visited, key)
		return fn(key, value)
	})
}

// TestStateReadsNeverVisitReservedKeys: the state engine also holds the
// savepoint, index entries and the ledger's entries,
// but range and prefix scans, index pages and selector queries visit only
// the keys of what they read — state keys of their namespace, entries of
// the index they use — never other bookkeeping, and the empty namespace
// (whose prefix would be the reserved one) holds nothing.
func TestStateReadsNeverVisitReservedKeys(t *testing.T) {
	kv := &visitLog{KV: storage.NewSingle()}
	db := &DB{kv: kv}
	if err := db.BuildIndexes(testIndexes()...); err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 3; n++ {
		b := NewUpdateBatch()
		for i := 0; i < 4; i++ {
			b.Put("data", fmt.Sprintf("rec/%d", i), []byte(fmt.Sprintf(`{"label":"car","at":"2026-07-0%d","n":%d}`, n, i)))
		}
		b.Put("data", "rec/\x00nul", []byte(`{"label":"bus"}`))
		b.Put("trust", "score", []byte(`{"label":"car"}`))
		ups := []TxUpdate{{Batch: b, Version: Version{BlockNum: n}}}
		ledgerLike := []ReservedWrite{{Key: "T" + "data\x00rec/1", Value: []byte{1}}, {Key: "L", Value: []byte{2}}}
		db.ApplyBlockAt(ups, n, ledgerLike...)
	}
	state := func(ns string) func(string) bool {
		return func(k string) bool { return strings.HasPrefix(k, stateKey(ns, "")) }
	}
	index := func(name string) func(string) bool {
		return func(k string) bool { return strings.HasPrefix(k, indexPrefix(name)) }
	}
	either := func(a, b func(string) bool) func(string) bool {
		return func(k string) bool { return a(k) || b(k) }
	}
	query := func(ns string, sel Selector) func() int {
		return func() int {
			kvs, err := db.ExecuteQuery(ns, sel)
			if err != nil {
				t.Fatal(err)
			}
			return len(kvs)
		}
	}
	page := func(name string) func() int {
		return func() int {
			p, err := db.IterIndex(name, "", 0, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			return len(p.Entries)
		}
	}
	for _, c := range []struct {
		name    string
		read    func() int
		results int
		allowed func(string) bool
	}{
		{"range", func() int { return len(db.GetStateRange("data", "", "")) }, 5, state("data")},
		{"bounded range", func() int { return len(db.GetStateRange("data", "rec/1", "rec/3")) }, 2, state("data")},
		{"prefix range", func() int { return len(db.GetStateRange("data", "rec/", "rec0")) }, 5, state("data")},
		{"other namespace", func() int { return len(db.GetStateRange("trust", "", "")) }, 1, state("trust")},
		{"empty namespace range", func() int { return len(db.GetStateRange("", "", "")) }, 0, state("")},
		{"index page", page("label"), 5, index("label")},
		{"time index page", page("at"), 4, index("at")},
		{"indexed query", query("data", Selector{"label": "car"}), 4, either(index("label"), state("data"))},
		{"indexed range query", query("data", Selector{"at": map[string]any{"$gte": "2026-07-03"}}), 4, either(index("at"), state("data"))},
		{"scan query", query("data", Selector{"n": map[string]any{"$gte": float64(2)}}), 2, state("data")},
		{"empty namespace query", query("", Selector{"label": "car"}), 0, state("")},
	} {
		kv.visited = nil
		if got := c.read(); got != c.results {
			t.Fatalf("%s: %d results, want %d", c.name, got, c.results)
		}
		for _, k := range kv.visited {
			if !c.allowed(k) {
				t.Fatalf("%s visited %q", c.name, k)
			}
		}
	}
}
