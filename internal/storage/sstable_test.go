package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"socialchain/internal/codec/codectest"
	"socialchain/internal/walframe"
)

// writeTable writes entries (ascending keys) as table fileNo in dir and
// opens it.
func writeTable(t testing.TB, dir string, fileNo uint64, entries []lsmEntry) *table {
	t.Helper()
	w, err := newSSTWriter(dir, fileNo)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := w.add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	tb, err := openTable(dir, fileNo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.f.Close() })
	return tb
}

// indexShapedKeys are secondary-index entry keys as statedb writes them:
// a long shared prefix, then a 64-hex record id.
func indexShapedKeys(n int) []lsmEntry {
	entries := make([]lsmEntry, n)
	for i := range entries {
		id := sha256.Sum256([]byte(fmt.Sprint(i)))
		entries[i] = lsmEntry{key: "\x00Isource\x00city/cam-0\x00rec/" + hex.EncodeToString(id[:])}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	return entries
}

// TestTableGetAllocs: a point lookup allocates the value it returns and
// nothing else — not the block it reads, not the keys it passes.
func TestTableGetAllocs(t *testing.T) {
	var entries []lsmEntry
	for i := 0; i < 2000; i++ {
		e := lsmEntry{key: fmt.Sprintf("data\x00rec/%06d", 2*i), value: []byte(fmt.Sprintf(`{"label":"car","idx":%d}`, i))}
		if i%50 == 7 {
			e = lsmEntry{key: e.key, tomb: true}
		}
		entries = append(entries, e)
	}
	tb := writeTable(t, t.TempDir(), 1, entries)
	if tb.nblocks < 10 {
		t.Fatalf("%d blocks: want a multi-block table", tb.nblocks)
	}
	for _, e := range entries {
		val, tomb, found, err := tb.get(e.key, nil)
		if err != nil || !found || tomb != e.tomb || !bytes.Equal(val, e.value) {
			t.Fatalf("get(%q) = %q tomb=%v found=%v err=%v, want %q tomb=%v", e.key, val, tomb, found, err, e.value, e.tomb)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts need a build without -race")
	}
	hit, tombKey := entries[1234].key, entries[57].key
	miss := fmt.Sprintf("data\x00rec/%06d", 2*1234+1) // between two keys: the block is read
	tb.filter = bloomFilter{}                         // no filter: every miss reads its block
	for _, c := range []struct {
		name, key string
		found     bool
		allocs    float64
	}{
		{"hit", hit, true, 1},
		{"tombstone", tombKey, true, 0},
		{"miss", miss, false, 0},
		{"below", "data\x00rec/", false, 0},
	} {
		var stats lsmStats
		got := testing.AllocsPerRun(200, func() {
			if _, _, found, err := tb.get(c.key, &stats); err != nil || found != c.found {
				t.Fatalf("%s: found=%v err=%v", c.name, found, err)
			}
		})
		if got > c.allocs {
			t.Errorf("%s: %.1f allocations per lookup, want at most %.0f", c.name, got, c.allocs)
		}
	}
}

// TestTableIndexResident: an open table holds its index as the index
// block's own bytes — a separator, a handle and the restart overhead per
// data block — not a struct and a string per block.
func TestTableIndexResident(t *testing.T) {
	dir := t.TempDir()
	entries := indexShapedKeys(10000)
	writeTable(t, dir, 1, entries)
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	tb, err := openTable(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.f.Close()
	held := heap() - before
	// The bloom block's frame buffer, which the filter aliases.
	mid := heap()
	bloom := make([]byte, walframe.HeaderLen+len(tb.filter.encode(nil)))
	bloomHeld := heap() - mid
	runtime.KeepAlive(bloom)

	perBlock := float64(tb.indexBytes()) / float64(tb.nblocks)
	heapPerBlock := float64(held-bloomHeld) / float64(tb.nblocks)
	t.Logf("%d keys in %d blocks: index %d B (%.1f B/block), open table holds %d B besides its bloom filter (%.1f B/block)",
		len(entries), tb.nblocks, tb.indexBytes(), perBlock, held-bloomHeld, heapPerBlock)
	if perBlock > 32 {
		t.Errorf("index holds %.1f B per data block, want at most 32", perBlock)
	}
	if heapPerBlock > 32 {
		t.Errorf("open table holds %.1f B per data block besides its bloom filter, want at most 32", heapPerBlock)
	}
	for _, e := range entries[:200] {
		if _, _, found, err := tb.get(e.key, nil); !found || err != nil {
			t.Fatalf("get(%q): found=%v err=%v", e.key, found, err)
		}
	}
}

// TestTableRefusesOlderFormat: a table whose footer names format 1 — every
// table an earlier build wrote — is refused at open, by the table reader
// and by the engine over its directory, with an error naming the format.
func TestTableRefusesOlderFormat(t *testing.T) {
	dir := t.TempDir()
	buildTabled(t, dir)
	names := dirFiles(t, dir, sstPrefix, sstSuffix)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	foot := data[len(data)-sstFooterLen:]
	foot[walframe.HeaderLen+4] = 1
	walframe.Seal(foot)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var fileNo uint64
	if _, err := fmt.Sscanf(strings.TrimPrefix(names[0], sstPrefix), "%016x", &fileNo); err != nil {
		t.Fatal(err)
	}
	_, err = openTable(dir, fileNo)
	if err == nil || !strings.Contains(err.Error(), "is in format 1, written by an older build") {
		t.Fatalf("openTable over a format-1 table: %v", err)
	}
	p, err := OpenPersist(Config{Dir: dir})
	if err == nil {
		p.Close()
		t.Fatal("the engine opened a directory holding a format-1 table")
	}
	if !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("engine refusal does not name the format: %v", err)
	}
}

// blockEntries walks a block whole, as checkBlock accepts it.
func blockEntries(block []byte) ([]lsmEntry, error) {
	var out []lsmEntry
	_, err := checkBlock(block, func(it *blockIter) error {
		e := lsmEntry{key: string(it.key), tomb: it.tomb}
		if !it.tomb {
			e.value = append([]byte{}, it.val...)
		}
		out = append(out, e)
		return nil
	})
	return out, err
}

// entriesFrom turns fuzz bytes into a writer's input: keys cut from in by
// its own length bytes, sorted and de-duplicated; every third a
// tombstone, the rest valued with their own bytes reversed.
func entriesFrom(in []byte) []lsmEntry {
	seen := map[string]bool{}
	var keys []string
	for len(in) > 0 {
		n := min(int(in[0]%40), len(in)-1)
		k := string(in[1 : 1+n])
		in = in[1+n:]
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]lsmEntry, len(keys))
	for i, k := range keys {
		out[i].key = k
		if i%3 == 2 {
			out[i].tomb = true
			continue
		}
		out[i].value = []byte{}
		for j := len(k) - 1; j >= 0; j-- {
			out[i].value = append(out[i].value, k[j])
		}
	}
	return out
}

// checkSeeks holds a well-formed block's seek to its entry list, at keys
// spread over the block (about 16) and just past each.
func checkSeeks(t *testing.T, block []byte, entries []lsmEntry) {
	t.Helper()
	var it blockIter
	for i := 0; i < len(entries); i += 1 + len(entries)/16 {
		for _, target := range []string{entries[i].key, entries[i].key + "\x00"} {
			ge := sort.Search(len(entries), func(i int) bool { return entries[i].key >= target })
			if err := it.init(block); err != nil {
				t.Fatal(err)
			}
			ok := it.seekGE(target)
			if ok != (ge < len(entries)) {
				t.Fatalf("seekGE(%q) = %v, want entry %d of %d", target, ok, ge, len(entries))
			}
			if w := entries[min(ge, len(entries)-1)]; ok && (string(it.key) != w.key || it.tomb != w.tomb || !bytes.Equal(it.val, w.value)) {
				t.Fatalf("seekGE(%q) landed at %q, want %q", target, it.key, w.key)
			}
		}
	}
}

// FuzzSSTableBlock holds the block format both ways. Any bytes, read as a
// data or an index block payload, decode without a panic, and a block
// the checker accepts answers its seeks with its own entries. And any
// entry list the bytes spell out, written by the block builder, reads back
// exactly — as a data block and, with handles for values, as an index.
func FuzzSSTableBlock(f *testing.F) {
	for _, seed := range blockSeeds() {
		f.Add(seed[0].([]byte))
	}
	f.Fuzz(checkBlockFormat)
}

// checkBlockFormat is FuzzSSTableBlock's property on one input.
func checkBlockFormat(t *testing.T, in []byte) {
	if entries, err := blockEntries(in); err == nil {
		checkSeeks(t, in, entries)
	}
	parseIndex(in, 0)
	var it blockIter
	if it.init(in) == nil {
		for it.next() {
		}
		it.init(in)
		it.seekGE(string(in))
	}

	want := entriesFrom(in)
	var b blockBuilder
	b.reset(0)
	for _, e := range want {
		b.add(e.tomb, e.key, e.value)
	}
	block := append([]byte(nil), b.finish()...)
	got, err := blockEntries(block)
	if err != nil {
		t.Fatalf("the builder's block does not decode: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d entries back, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i].key != want[i].key || got[i].tomb != want[i].tomb || !bytes.Equal(got[i].value, want[i].value) {
			t.Fatalf("entry %d: got %+v, wrote %+v", i, got[i], want[i])
		}
	}
	checkSeeks(t, block, want)

	var ix blockBuilder
	ix.reset(0)
	off := 0
	for i, e := range want {
		length := walframe.HeaderLen + i
		ix.add(false, e.key, binary.AppendUvarint(binary.AppendUvarint(nil, uint64(off)), uint64(length)))
		off += length
	}
	payload := binary.AppendUvarint(nil, 1)
	payload = append(payload, 'a')
	payload = binary.AppendUvarint(payload, 0)
	payload = append(payload, ix.finish()...)
	if _, _, _, n, err := parseIndex(payload, int64(off)); err != nil || n != len(want) {
		t.Fatalf("the builder's index: %d blocks, err %v; wrote %d", n, err, len(want))
	}
}

// blockSeeds are the fuzz target's committed seeds, each whole, cut and
// flipped: the data block of a 20-entry table (two restart points, puts
// and tombstones) and the index block of a 12-entry table of 1 KiB
// values, one data block per three entries.
func blockSeeds() map[string][]any {
	dir, err := os.MkdirTemp("", "sstable-seeds")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	// frame returns the payload of the frame at off in table fileNo, or,
	// for off < 0, of its index block.
	frame := func(fileNo uint64, entries []lsmEntry, off int64) []byte {
		w, err := newSSTWriter(dir, fileNo)
		if err != nil {
			panic(err)
		}
		for _, e := range entries {
			if err := w.add(e); err != nil {
				panic(err)
			}
		}
		if err := w.finish(); err != nil {
			panic(err)
		}
		file, err := os.ReadFile(sstPath(dir, fileNo))
		if err != nil {
			panic(err)
		}
		if off < 0 {
			off = int64(binary.BigEndian.Uint64(file[len(file)-sstFooterLen+walframe.HeaderLen+5:]))
		}
		payload, _, err := walframe.Next(file, int(off))
		if err != nil {
			panic(err)
		}
		return payload
	}
	// Short keys keep the seeds small: the fuzzer's minimizer is
	// quadratic in the input's length.
	var small, large []lsmEntry
	for i := 0; i < 20; i++ {
		e := lsmEntry{key: fmt.Sprintf("rec/%03d", 7*i)}
		if i%7 == 3 {
			e.tomb = true
		} else {
			e.value = []byte(fmt.Sprint(i))
		}
		small = append(small, e)
	}
	for i := 0; i < 12; i++ {
		large = append(large, lsmEntry{key: fmt.Sprintf("rec/%03d", 7*i), value: bytes.Repeat([]byte{byte('a' + i)}, 1<<10)})
	}
	data, index := frame(1, small, 0), frame(2, large, -1)
	flip := func(b []byte, at int) []byte {
		b = append([]byte(nil), b...)
		b[at] ^= 0x10
		return b
	}
	return map[string][]any{
		"data":       {data},
		"data-cut":   {data[:len(data)*2/3]},
		"data-flip":  {flip(data, len(data)/2)},
		"index":      {index},
		"index-cut":  {index[:len(index)-5]},
		"index-flip": {flip(index, len(index)-6)},
	}
}

// TestSSTableFuzzCorpusCurrent: the committed seeds are the writer's
// blocks in this format.
func TestSSTableFuzzCorpusCurrent(t *testing.T) {
	codectest.Corpus(t, "FuzzSSTableBlock", blockSeeds())
}

// TestPersistStatsIndexBytes: the engine reports what its live tables hold
// in memory — index blocks, fences and bloom filters — and a closed engine
// holds none of it.
func TestPersistStatsIndexBytes(t *testing.T) {
	dir := t.TempDir()
	buildTabled(t, dir)
	p, err := OpenPersist(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, lvl := range p.version.levels {
		for _, tb := range lvl {
			want += tb.indexBytes() + int64(len(tb.filter.bits))
		}
	}
	if got := p.Stats().IndexBytes; got == 0 || got != want {
		t.Fatalf("IndexBytes = %d, want the live tables' %d", got, want)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().IndexBytes; got != 0 {
		t.Fatalf("a closed engine reports %d index bytes", got)
	}
}
