package statedb

import (
	"encoding/json"
	"testing"

	"socialchain/internal/storage"
)

// mustDoc decodes a JSON object literal for Matches tests.
func mustDoc(t *testing.T, s string) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal([]byte(s), &doc); err != nil {
		t.Fatalf("bad doc %s: %v", s, err)
	}
	return doc
}

func TestMatchesInMixedNumericTypes(t *testing.T) {
	doc := mustDoc(t, `{"n": 5, "f": 5.0, "s": "5"}`)
	cases := []struct {
		field string
		list  []any
		want  bool
	}{
		// JSON numbers decode to float64; int operands from Go callers
		// must loose-match them.
		{"n", []any{int(5)}, true},
		{"n", []any{int64(5)}, true},
		{"n", []any{float64(5)}, true},
		{"n", []any{float32(5)}, true},
		{"n", []any{uint64(5)}, true},
		{"n", []any{json.Number("5")}, true},
		{"n", []any{json.Number("5.0")}, true},
		{"f", []any{int(5)}, true},
		// Numeric string never equals a number, in either direction.
		{"n", []any{"5"}, false},
		{"s", []any{int(5)}, false},
		{"n", []any{int(4), int(6)}, false},
		{"n", []any{true}, false},
	}
	for _, c := range cases {
		ok, err := Matches(doc, Selector{c.field: map[string]any{"$in": c.list}})
		if err != nil {
			t.Fatalf("$in %v on %s: %v", c.list, c.field, err)
		}
		if ok != c.want {
			t.Fatalf("$in %v on %s = %v, want %v", c.list, c.field, ok, c.want)
		}
	}
}

func TestMatchesInRejectsNonListOperand(t *testing.T) {
	doc := mustDoc(t, `{"n": 5}`)
	if _, err := Matches(doc, Selector{"n": map[string]any{"$in": "not-a-list"}}); err == nil {
		t.Fatal("$in with scalar operand accepted")
	}
}

func TestMatchesDottedPathThroughNonObjects(t *testing.T) {
	doc := mustDoc(t, `{"a": {"b": 1}, "s": "str", "arr": [1,2], "nil": null, "num": 3}`)
	// Paths descending through a scalar, array, null or missing segment
	// resolve to "absent": equality fails, $exists:false succeeds, $ne
	// succeeds (absent != anything).
	for _, path := range []string{"s.x", "arr.0", "nil.x", "num.x.y", "a.b.c", "missing.x"} {
		if ok, err := Matches(doc, Selector{path: float64(1)}); err != nil || ok {
			t.Fatalf("path %s equality = (%v, %v), want (false, nil)", path, ok, err)
		}
		if ok, err := Matches(doc, Selector{path: map[string]any{"$exists": false}}); err != nil || !ok {
			t.Fatalf("path %s $exists:false = (%v, %v), want (true, nil)", path, ok, err)
		}
		if ok, err := Matches(doc, Selector{path: map[string]any{"$ne": float64(1)}}); err != nil || !ok {
			t.Fatalf("path %s $ne = (%v, %v), want (true, nil)", path, ok, err)
		}
		if ok, err := Matches(doc, Selector{path: map[string]any{"$gt": float64(0)}}); err != nil || ok {
			t.Fatalf("path %s $gt on absent = (%v, %v), want (false, nil)", path, ok, err)
		}
	}
	// A path that does resolve still works alongside the broken ones.
	if ok, err := Matches(doc, Selector{"a.b": float64(1)}); err != nil || !ok {
		t.Fatalf("a.b = (%v, %v), want (true, nil)", ok, err)
	}
}

func TestMatchesUnknownOperatorErrors(t *testing.T) {
	doc := mustDoc(t, `{"n": 5}`)
	for _, op := range []string{"$regex", "$nin", "$foo", ""} {
		if _, err := Matches(doc, Selector{"n": map[string]any{op: float64(1)}}); err == nil {
			t.Fatalf("operator %q accepted", op)
		}
	}
	// The error surfaces through the query.
	db := newDB(t)
	b := NewUpdateBatch()
	b.Put("cc", "k", []byte(`{"n":5}`))
	applyTx(db, b, Version{BlockNum: 1})
	if _, err := db.ExecuteQuery("cc", Selector{"n": map[string]any{"$foo": float64(1)}}); err == nil {
		t.Fatal("ExecuteQuery swallowed unknown operator")
	}
}

// TestExecuteQueryRejectsMalformedSelector: a malformed operator fails the
// query even when no record reaches it — the record fails another field
// first (Go's map order is random, so only some calls would evaluate the
// bad one), or the namespace is empty — instead of returning an empty
// result.
func TestExecuteQueryRejectsMalformedSelector(t *testing.T) {
	indexed, err := NewIndexedWith(storage.Config{}, IndexSpec{Name: "label", Namespace: "data", Field: "label"})
	if err != nil {
		t.Fatal(err)
	}
	defer indexed.Close()
	plain := newDB(t)
	b := NewUpdateBatch()
	b.Put("data", "rec/1", []byte(`{"label":"car","x":1}`))
	applyTx(indexed, b, Version{BlockNum: 1})
	applyTx(plain, b, Version{BlockNum: 1})
	for _, c := range []struct {
		db    *DB
		ns    string
		sel   Selector
		calls int
	}{
		{indexed, "data", Selector{"label": "no-such-label", "x": map[string]any{"$regex": "a"}}, 1},
		{indexed, "data", Selector{"label": "no-such-label", "x": map[string]any{"$in": "not-a-list"}}, 1},
		{plain, "data", Selector{"label": "nope", "x": map[string]any{"$regex": "a"}}, 50},
		{plain, "empty", Selector{"x": map[string]any{"$regex": "a"}}, 1},
	} {
		for i := 0; i < c.calls; i++ {
			if out, err := c.db.ExecuteQuery(c.ns, c.sel); err == nil {
				t.Fatalf("call %d: ExecuteQuery(%q, %v) = %v with no error", i, c.ns, c.sel, out)
			}
		}
	}
}

func TestMatchesRangeCrossTypeNeverMatches(t *testing.T) {
	doc := mustDoc(t, `{"n": 5, "s": "m"}`)
	// Number vs string bound (and vice versa) is unordered: all range ops
	// are false rather than an error, mirroring CouchDB's type ordering
	// being collapsed to "no match" here.
	for _, sel := range []Selector{
		{"n": map[string]any{"$gt": "a"}},
		{"s": map[string]any{"$lt": float64(9)}},
		{"s": map[string]any{"$gte": true}},
	} {
		if ok, err := Matches(doc, sel); err != nil || ok {
			t.Fatalf("%v = (%v, %v), want (false, nil)", sel, ok, err)
		}
	}
	if ok, err := Matches(doc, Selector{"s": map[string]any{"$gte": "a", "$lt": "z"}}); err != nil || !ok {
		t.Fatalf("string range = (%v, %v), want (true, nil)", ok, err)
	}
}
