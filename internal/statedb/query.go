package statedb

import (
	"encoding/json"
	"fmt"
)

// Selector is a CouchDB-style rich query over JSON values stored in the
// world state. Each field maps to either a literal (equality) or an
// operator object: {"$gt": v, "$gte": v, "$lt": v, "$lte": v, "$ne": v,
// "$in": [v...]}. All fields must match (implicit AND). This covers the
// conditional metadata queries (by label, time window, location) that the
// paper's query engine forwards to the blockchain executor.
type Selector map[string]any

// ExecuteQuery returns entries of ns whose JSON value matches the
// selector, sorted by key. Non-JSON values never match. The selector is
// checked before any record is read, so a malformed one fails the query
// even when no record would reach the bad operator. The namespace is
// scanned off the engine iterator: every value is JSON-decoded, and
// non-matching values are never copied out of the store. Secondary
// indexes serve IterIndex pages, not selectors.
func (db *DB) ExecuteQuery(ns string, sel Selector) ([]KV, error) {
	if err := checkSelector(sel); err != nil {
		return nil, err
	}
	var out []KV
	var ierr error
	db.iterNamespace(ns, func(key string, vv VersionedValue) bool {
		var doc map[string]any
		if err := json.Unmarshal(vv.Value, &doc); err != nil {
			return true
		}
		ok, err := Matches(doc, sel)
		if err != nil {
			ierr = err
			return false
		}
		if ok {
			out = append(out, KV{Namespace: ns, Key: key, Value: append([]byte(nil), vv.Value...), Version: vv.Version})
		}
		return true
	})
	if ierr != nil {
		return nil, ierr
	}
	return out, nil
}

// checkSelector statically validates a selector's operators and operand
// shapes (the conditions applyOp reports errors for).
func checkSelector(sel Selector) error {
	for _, cond := range sel {
		c, ok := cond.(map[string]any)
		if !ok {
			continue // literal equality, always valid
		}
		for op, operand := range c {
			switch op {
			case "$exists", "$ne", "$eq", "$gt", "$gte", "$lt", "$lte":
			case "$in":
				if _, ok := operand.([]any); !ok {
					return fmt.Errorf("statedb: $in operand must be a list, got %T", operand)
				}
			default:
				return fmt.Errorf("statedb: unsupported query operator %q", op)
			}
		}
	}
	return nil
}

// Matches reports whether doc satisfies the selector.
func Matches(doc map[string]any, sel Selector) (bool, error) {
	for field, cond := range sel {
		val, present := lookupField(doc, field)
		switch c := cond.(type) {
		case map[string]any:
			for op, operand := range c {
				ok, err := applyOp(op, val, present, operand)
				if err != nil {
					return false, err
				}
				if !ok {
					return false, nil
				}
			}
		default:
			if !present || !looseEqual(val, cond) {
				return false, nil
			}
		}
	}
	return true, nil
}

// lookupField supports dotted paths ("location.latitude").
func lookupField(doc map[string]any, path string) (any, bool) {
	cur := any(doc)
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '.' {
			seg := path[start:i]
			m, ok := cur.(map[string]any)
			if !ok {
				return nil, false
			}
			cur, ok = m[seg]
			if !ok {
				return nil, false
			}
			start = i + 1
		}
	}
	return cur, true
}

func applyOp(op string, val any, present bool, operand any) (bool, error) {
	switch op {
	case "$exists":
		want, _ := operand.(bool)
		return present == want, nil
	case "$ne":
		return !present || !looseEqual(val, operand), nil
	case "$eq":
		return present && looseEqual(val, operand), nil
	case "$in":
		list, ok := operand.([]any)
		if !ok {
			return false, fmt.Errorf("statedb: $in operand must be a list, got %T", operand)
		}
		if !present {
			return false, nil
		}
		for _, item := range list {
			if looseEqual(val, item) {
				return true, nil
			}
		}
		return false, nil
	case "$gt", "$gte", "$lt", "$lte":
		if !present {
			return false, nil
		}
		cmp, ok := compare(val, operand)
		if !ok {
			return false, nil
		}
		switch op {
		case "$gt":
			return cmp > 0, nil
		case "$gte":
			return cmp >= 0, nil
		case "$lt":
			return cmp < 0, nil
		default:
			return cmp <= 0, nil
		}
	default:
		return false, fmt.Errorf("statedb: unsupported query operator %q", op)
	}
}

// looseEqual compares JSON scalars, treating all numbers as float64.
func looseEqual(a, b any) bool {
	if af, aok := toFloat(a); aok {
		bf, bok := toFloat(b)
		return bok && af == bf
	}
	return a == b
}

// compare returns -1/0/1 for ordered scalars (numbers or strings).
func compare(a, b any) (int, bool) {
	if af, ok := toFloat(a); ok {
		bf, ok := toFloat(b)
		if !ok {
			return 0, false
		}
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	as, ok := a.(string)
	if !ok {
		return 0, false
	}
	bs, ok := b.(string)
	if !ok {
		return 0, false
	}
	switch {
	case as < bs:
		return -1, true
	case as > bs:
		return 1, true
	default:
		return 0, true
	}
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	case json.Number:
		f, err := n.Float64()
		return f, err == nil
	default:
		return 0, false
	}
}
