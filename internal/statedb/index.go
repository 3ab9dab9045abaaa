package statedb

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"socialchain/internal/storage"
)

// Secondary indexes turn the hot conditional-retrieval queries (by label,
// source, camera, time window) from O(namespace) JSON-decoding scans into
// prefix iterations over small composite keys — the CouchDB-index pattern
// Fabric deployments lean on for read scalability. Index entries live in
// the world state's own engine under the reserved prefix: they never
// appear in snapshots, range scans or MVCC read sets, and are rebuilt (not
// copied) when a snapshot is restored, so index configuration can never
// change the bytes two peers compare for state equality.
//
// Index entry layout (one entry per indexed key, empty value):
//
//	\x00 I <index-name> \x00 escape(<field-value>) \x00 <state-key>
//
// escape() makes the value NUL-free (\x00 -> \x01\x01, \x01 -> \x01\x02),
// so the first NUL after the name delimits the value and the state key may
// contain anything, NULs included. Entries therefore
// sort by (value, key), which makes an index over a timestamp field a
// time-ordered index for free.
//
// Consistency: every commit computes index mutations from the same batch
// that mutates the world state and lands them in that one engine batch,
// and every engine applies a batch as one step (storage.KV.ApplyBatch):
// one index-page scan or one state read sees the state after some whole
// block, never part of one. Two separate reads can still straddle a
// commit — an index page read before a block, a record fetched after it —
// so a page's reader fetches each named record from current state and
// skips one that is gone, and the MVCC layer above catches anything that
// mattered to a transaction. Selectors (ExecuteQuery) never read the
// indexes: they scan the namespace.

// IndexSpec declares one secondary index over a namespace. Only string
// field values are indexed: JSON object values whose Field (a dotted path,
// e.g. "metadata.camera_id") resolves to a string get one entry; numbers,
// booleans, nested objects and non-object values are skipped.
type IndexSpec struct {
	// Name identifies the index; unique across all specs of a DB.
	Name string
	// Namespace is the world-state namespace the index covers.
	Namespace string
	// Field is the dotted JSON path of the indexed value.
	Field string
}

// IndexEntry is one (value, key) pair of an index page.
type IndexEntry struct {
	// Value is the indexed field value.
	Value string
	// Key is the world-state key of the indexed record.
	Key string
}

// IndexPage is one page of an index iteration.
type IndexPage struct {
	Entries []IndexEntry
	// Next is an opaque resume token: pass it to the next IterIndex call
	// to continue after the last entry. Empty when the iteration is
	// exhausted.
	Next string
}

// indexer maintains a DB's secondary indexes in its state engine.
type indexer struct {
	kv     storage.KV // the world state's engine
	byNS   map[string][]IndexSpec
	byName map[string]IndexSpec
}

// Reserved keys of the indexes: entries under indexEntries, and the
// encoded spec list they were built for under indexSpecsKey.
const (
	indexEntries  = reservedPrefix + "I"
	indexSpecsKey = reservedPrefix + "specs"
)

func newIndexer(kv storage.KV, specs []IndexSpec) (*indexer, error) {
	ix := &indexer{
		kv:     kv,
		byNS:   make(map[string][]IndexSpec),
		byName: make(map[string]IndexSpec),
	}
	for _, spec := range specs {
		switch {
		case spec.Name == "" || spec.Namespace == "" || spec.Field == "":
			return nil, fmt.Errorf("statedb: index spec %+v: name, namespace and field are all required", spec)
		case strings.IndexByte(spec.Name, 0) >= 0:
			return nil, fmt.Errorf("statedb: index name %q contains reserved NUL", spec.Name)
		}
		if _, dup := ix.byName[spec.Name]; dup {
			return nil, fmt.Errorf("statedb: duplicate index name %q", spec.Name)
		}
		ix.byName[spec.Name] = spec
		ix.byNS[spec.Namespace] = append(ix.byNS[spec.Namespace], spec)
	}
	return ix, nil
}

// escapeIndexValue makes a field value NUL-free so it can be delimited
// inside a composite entry key. The mapping is injective; ordering among
// escaped values is not relied upon beyond equality of full values.
func escapeIndexValue(s string) string {
	if !strings.ContainsAny(s, "\x00\x01") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 0x00:
			b.WriteByte(0x01)
			b.WriteByte(0x01)
		case 0x01:
			b.WriteByte(0x01)
			b.WriteByte(0x02)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// unescapeIndexValue reverses escapeIndexValue.
func unescapeIndexValue(s string) string {
	if strings.IndexByte(s, 0x01) < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == 0x01 && i+1 < len(s) {
			i++
			if s[i] == 0x01 {
				b.WriteByte(0x00)
			} else {
				b.WriteByte(0x01)
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// indexPrefix is the reserved prefix of every entry of index name.
func indexPrefix(name string) string {
	return indexEntries + name + "\x00"
}

// entryKey builds the composite entry key for one indexed record.
func entryKey(index, value, stateKey string) string {
	return indexPrefix(index) + escapeIndexValue(value) + "\x00" + stateKey
}

// splitEntry recovers (value, stateKey) from an entry key's suffix after
// its indexPrefix. The escaped value is NUL-free, so the first NUL
// is the delimiter even when the state key embeds NULs.
func splitEntry(suffix string) (value, stateKey string, ok bool) {
	i := strings.IndexByte(suffix, 0)
	if i < 0 {
		return "", "", false
	}
	return unescapeIndexValue(suffix[:i]), suffix[i+1:], true
}

// indexed is one spec's field in a value: ok when it is a JSON string.
type indexed struct {
	v  string
	ok bool
}

// indexFields finds each spec's field in a stored value as json.Unmarshal
// into a map[string]any and lookupField would, without the map: one
// json.Valid pass, then fieldsOf. A value that is not an object, or that
// encoding/json refuses (a number beyond float64), has no fields.
func indexFields(value []byte, specs []IndexSpec) []indexed {
	out := make([]indexed, len(specs))
	if json.Valid(value) {
		fieldsOf(value[skipSep(value, 0):], specs, out)
	}
	return out
}

// fieldsOf sets out[i] to spec i's field in obj, part of a valid JSON
// value, unless obj is not an object or holds a number ParseFloat refuses.
// One walk over obj's members serves every spec, and one walk into the
// member a further path segment names; the last duplicate key wins, and
// keys compare decoded.
func fieldsOf(obj []byte, specs []IndexSpec, out []indexed) {
	if len(obj) == 0 || obj[0] != '{' {
		return
	}
	raws := make([][]byte, len(specs))
	for i := skipSep(obj, 1); obj[i] != '}'; {
		keyEnd, _ := skipValue(obj, i)
		start := skipSep(obj, keyEnd)
		end, ok := skipValue(obj, start)
		if !ok {
			return
		}
		key := unquote(obj[i:keyEnd])
		for k, spec := range specs {
			if seg, _, _ := strings.Cut(spec.Field, "."); string(key) == seg {
				raws[k] = obj[start:end]
			}
		}
		i = skipSep(obj, end)
	}
	for i, spec := range specs {
		if _, rest, nested := strings.Cut(spec.Field, "."); nested {
			fieldsOf(raws[i], []IndexSpec{{Field: rest}}, out[i:i+1])
		} else if raws[i] != nil && raws[i][0] == '"' {
			out[i] = indexed{string(unquote(raws[i])), true}
		}
	}
}

// skipValue returns the end of the JSON value at b[i] (b is valid JSON),
// or false when it holds a number ParseFloat refuses.
func skipValue(b []byte, i int) (int, bool) {
	for depth := 0; ; {
		switch c := b[i]; {
		case c == '"':
			for i++; b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			i++
		case c == '{' || c == '[':
			depth++
			i++
		case c == '}' || c == ']':
			depth--
			i++
		case c == ',' || c == ':' || c <= ' ': // between a container's values
			i++
		default: // a number, true, false or null
			j := i + 1
			for j < len(b) && b[j] > ' ' && b[j] != ',' && b[j] != ']' && b[j] != '}' {
				j++
			}
			// Only an exponent or 309 digits take a number past float64.
			if c <= '9' && (j-i > 308 || bytes.ContainsAny(b[i:j], "Ee")) {
				if _, err := strconv.ParseFloat(string(b[i:j]), 64); err != nil {
					return 0, false
				}
			}
			i = j
		}
		if depth == 0 {
			return i, true
		}
	}
}

// skipSep skips whitespace and the ':' or ',' between an object's tokens.
func skipSep(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r' || b[i] == ':' || b[i] == ',') {
		i++
	}
	return i
}

// unquote decodes a JSON string token as encoding/json does, returning
// the token's own inner bytes when it has no escape and is valid UTF-8.
func unquote(tok []byte) []byte {
	if inner := tok[1 : len(tok)-1]; bytes.IndexByte(inner, '\\') < 0 && utf8.Valid(inner) {
		return inner
	}
	var s string
	_ = json.Unmarshal(tok, &s) // a valid token: cannot fail
	return []byte(s)
}

// batchWrites computes the index mutations for one update batch against
// the committed state (old values are read before the batch applies).
func (ix *indexer) batchWrites(db *DB, batch *UpdateBatch) []storage.Write {
	var out []storage.Write
	for ns, kvs := range batch.updates {
		specs := ix.byNS[ns]
		if len(specs) == 0 {
			continue
		}
		for key, w := range kvs {
			vv, _ := db.GetState(ns, key) // an absent key has no value
			newValue := w.Value
			if w.IsDelete {
				newValue = nil
			}
			olds, news := indexFields(vv.Value, specs), indexFields(newValue, specs)
			for i, spec := range specs {
				old, cur := olds[i], news[i]
				if old.ok && cur.ok && old.v == cur.v {
					continue // unchanged: avoid a same-key delete+put race in one batch
				}
				if old.ok {
					out = append(out, storage.Write{Key: entryKey(spec.Name, old.v, key), Delete: true})
				}
				if cur.ok {
					out = append(out, storage.Write{Key: entryKey(spec.Name, cur.v, key)})
				}
			}
		}
	}
	return out
}

// specs lists the registered index specs, sorted by name.
func (ix *indexer) specs() []IndexSpec {
	out := make([]IndexSpec, 0, len(ix.byName))
	for _, spec := range ix.byName {
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// specBytes encodes the spec list in name order, for comparison across
// opens.
func (ix *indexer) specBytes() []byte {
	enc, err := json.Marshal(ix.specs())
	if err != nil {
		panic("statedb: index spec marshal: " + err.Error()) // three string fields
	}
	return enc
}

// inStep reports whether the engine already holds exactly what rebuild
// would write: entries built for this spec list (no list stored when none
// is wanted). Entries land in the same batch as the state they describe,
// so only a changed spec list can leave them stale.
func (ix *indexer) inStep() bool {
	stored, ok := ix.kv.Get(indexSpecsKey)
	if len(ix.byName) == 0 {
		return !ok
	}
	return ok && bytes.Equal(stored, ix.specBytes())
}

// rebuild drops and reconstructs every index from current state in one
// batch, used after Restore, when indexes are added to a populated
// database, and at open whenever inStep fails.
func (ix *indexer) rebuild(db *DB) {
	var writes []storage.Write
	ix.kv.IterPrefix(indexEntries, func(key string, _ []byte) bool {
		writes = append(writes, storage.Write{Key: key, Delete: true})
		return true
	})
	for ns, specs := range ix.byNS {
		db.iterNamespace(ns, func(key string, vv VersionedValue) bool {
			for i, f := range indexFields(vv.Value, specs) {
				if f.ok {
					writes = append(writes, storage.Write{Key: entryKey(specs[i].Name, f.v, key)})
				}
			}
			return true
		})
	}
	if len(ix.byName) > 0 {
		writes = append(writes, storage.Write{Key: indexSpecsKey, Value: ix.specBytes()})
	} else {
		writes = append(writes, storage.Write{Key: indexSpecsKey, Delete: true})
	}
	ix.kv.ApplyBatch(writes)
}

// BuildIndexes registers secondary indexes on the database — none drops
// any it had — reusing the recovered entries when they were built for
// this spec list (see inStep) and rebuilding them from the current state
// otherwise. It must not race commits; call it at assembly time (peer
// construction) or on a quiesced database.
func (db *DB) BuildIndexes(specs ...IndexSpec) error {
	ix, err := newIndexer(db.kv, specs)
	if err != nil {
		return err
	}
	if !ix.inStep() {
		ix.rebuild(db)
	}
	db.idx = nil
	if len(specs) > 0 {
		db.idx = ix
	}
	return nil
}

// Indexes lists the registered index specs, sorted by name.
func (db *DB) Indexes() []IndexSpec {
	if db.idx == nil {
		return nil
	}
	return db.idx.specs()
}

// encodeIndexToken wraps an entry-key suffix as an opaque printable token.
func encodeIndexToken(suffix string) string {
	return hex.EncodeToString([]byte(suffix))
}

// decodeIndexToken reverses encodeIndexToken.
func decodeIndexToken(token string) (string, error) {
	b, err := hex.DecodeString(token)
	if err != nil {
		return "", fmt.Errorf("statedb: bad index page token: %w", err)
	}
	return string(b), nil
}

// IterIndex pages through index name in (value, key) order, returning
// entries whose indexed value begins with valuePrefix. limit <= 0 means
// unbounded; offset skips entries (after the token position when both are
// given); token resumes after the entry a previous page ended on. The
// page's Next token is set whenever the limit cut the iteration short.
func (db *DB) IterIndex(name, valuePrefix string, limit, offset int, token string) (IndexPage, error) {
	if db.idx == nil {
		return IndexPage{}, fmt.Errorf("statedb: no indexes configured")
	}
	if _, ok := db.idx.byName[name]; !ok {
		return IndexPage{}, fmt.Errorf("statedb: unknown index %q", name)
	}
	after := ""
	if token != "" {
		var err error
		if after, err = decodeIndexToken(token); err != nil {
			return IndexPage{}, err
		}
	}
	skip := len(indexPrefix(name))
	var page IndexPage
	lastSuffix := ""
	db.kv.IterPrefix(indexPrefix(name)+escapeIndexValue(valuePrefix), func(composite string, _ []byte) bool {
		suffix := composite[skip:]
		if after != "" && suffix <= after {
			return true
		}
		if offset > 0 {
			offset--
			return true
		}
		if limit > 0 && len(page.Entries) == limit {
			page.Next = encodeIndexToken(lastSuffix)
			return false
		}
		value, key, ok := splitEntry(suffix)
		if !ok {
			return true
		}
		page.Entries = append(page.Entries, IndexEntry{Value: value, Key: key})
		lastSuffix = suffix
		return true
	})
	return page, nil
}
