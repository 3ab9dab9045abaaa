package storage

// SSTables are the LSM engine's immutable sorted runs. One file is a
// sequence of walframe-framed blocks — the same [len][CRC][payload]
// framing as the WAL, so every byte read back from disk is checksummed:
//
//	[data block]...[data block][index block][bloom block][footer]
//
// Data block payload: entries in ascending key order, each an op byte
// (0 put, 1 tombstone), uvarint key length, key bytes and, for puts,
// uvarint value length plus value bytes. Blocks are cut at ~4 KiB so a
// point lookup reads one block, not the file.
//
// Index block payload: uvarint block count, then per block uvarint file
// offset, uvarint framed length and uvarint first-key length + key; then
// the table's key-range fences (uvarint min-key length + bytes, uvarint
// max-key length + bytes) and uvarint total entry count. The index is
// small and loaded eagerly at open; data blocks are read lazily.
//
// Bloom block payload: the serialised filter over every key in the table
// (see bloom.go). An empty payload reads as a filter that rules nothing
// out.
//
// Footer: a fixed-size frame closing the file — magic "SST1", a version
// byte, and the index and bloom block offsets as 8-byte big-endian —
// read first at open to locate everything else.
//
// Readers never trust unchecked bytes: the footer, index, bloom and
// every data block must pass CRC validation, and the engine turns a
// failed check on the read path into a loud panic rather than serving a
// possibly-wrong value.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"socialchain/internal/walframe"
)

const (
	sstPrefix = "sst-"
	sstSuffix = ".sst"

	sstMagic   = "SST1"
	sstVersion = 1

	// sstFooterLen is the framed footer's total size: HeaderLen + magic(4)
	// + version(1) + indexOff(8) + bloomOff(8).
	sstFooterLen = walframe.HeaderLen + 4 + 1 + 8 + 8

	// blockTargetBytes cuts data blocks once their payload crosses this
	// size; a point lookup then reads ~one block from disk.
	blockTargetBytes = 4 << 10
)

func sstPath(dir string, fileNo uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", sstPrefix, fileNo, sstSuffix))
}

// blockMeta locates one data block inside a table file.
type blockMeta struct {
	off      int64
	length   int // framed length, header included
	firstKey string
}

// table is an open SSTable reader. All fields but the refcount are
// immutable after open; block reads go through pread (ReadAt), so a
// table is safe for concurrent lookups.
//
// Lifetime: refs counts the versions holding the table (see lsm.go). A
// compaction that drops the table from the live version marks it dead;
// when the last version referencing it is released the file is closed
// and, if dead, deleted from disk.
type table struct {
	path   string
	f      *os.File
	fileNo uint64
	blocks []blockMeta
	filter bloomFilter
	minKey string
	maxKey string
	count  int
	size   int64

	refs atomic.Int64
	dead atomic.Bool
}

func (t *table) ref() { t.refs.Add(1) }

func (t *table) unref() {
	if t.refs.Add(-1) == 0 {
		_ = t.f.Close()
		if t.dead.Load() {
			_ = os.Remove(t.path)
		}
	}
}

// openTable opens the table file and eagerly loads footer, index and
// bloom filter (all CRC-validated); data blocks stay on disk.
func openTable(dir string, fileNo uint64) (*table, error) {
	path := sstPath(dir, fileNo)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: sstable %s: %w", path, err)
	}
	t := &table{path: path, f: f, fileNo: fileNo}
	if err := t.load(); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

func (t *table) load() error {
	st, err := t.f.Stat()
	if err != nil {
		return fmt.Errorf("storage: sstable %s: %w", t.path, err)
	}
	t.size = st.Size()
	if t.size < sstFooterLen {
		return fmt.Errorf("storage: sstable %s: truncated (%d bytes)", t.path, t.size)
	}
	foot := make([]byte, sstFooterLen)
	if _, err := t.f.ReadAt(foot, t.size-sstFooterLen); err != nil {
		return fmt.Errorf("storage: sstable %s footer: %w", t.path, err)
	}
	payload, _, err := walframe.Next(foot, 0)
	if err != nil || len(payload) != sstFooterLen-walframe.HeaderLen {
		return fmt.Errorf("storage: sstable %s footer corrupt: %v", t.path, err)
	}
	if string(payload[:4]) != sstMagic || payload[4] != sstVersion {
		return fmt.Errorf("storage: sstable %s: bad magic/version", t.path)
	}
	indexOff := int64(binary.BigEndian.Uint64(payload[5:13]))
	bloomOff := int64(binary.BigEndian.Uint64(payload[13:21]))
	if indexOff < 0 || bloomOff < indexOff || bloomOff > t.size-sstFooterLen {
		return fmt.Errorf("storage: sstable %s: bad footer offsets", t.path)
	}
	index, err := t.readFrame(indexOff, int(bloomOff-indexOff))
	if err != nil {
		return fmt.Errorf("storage: sstable %s index: %w", t.path, err)
	}
	if err := t.parseIndex(index); err != nil {
		return fmt.Errorf("storage: sstable %s index corrupt: %w", t.path, err)
	}
	bloom, err := t.readFrame(bloomOff, int(t.size-sstFooterLen-bloomOff))
	if err != nil {
		return fmt.Errorf("storage: sstable %s bloom: %w", t.path, err)
	}
	if t.filter, err = decodeBloom(bloom); err != nil {
		return fmt.Errorf("storage: sstable %s bloom corrupt: %w", t.path, err)
	}
	return nil
}

// readFrame preads a framed block spanning [off, off+length) and returns
// its CRC-validated payload.
func (t *table) readFrame(off int64, length int) ([]byte, error) {
	if length < walframe.HeaderLen || off < 0 || off+int64(length) > t.size {
		return nil, fmt.Errorf("bad block bounds [%d,+%d)", off, length)
	}
	buf := make([]byte, length)
	if _, err := t.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	payload, next, err := walframe.Next(buf, 0)
	if err != nil {
		return nil, err
	}
	if next != length {
		return nil, fmt.Errorf("block at %d: %d trailing bytes", off, length-next)
	}
	return payload, nil
}

func (t *table) parseIndex(data []byte) error {
	readStr := func() (string, bool) {
		n, w := binary.Uvarint(data)
		if w <= 0 || uint64(len(data)-w) < n {
			return "", false
		}
		s := string(data[w : w+int(n)])
		data = data[w+int(n):]
		return s, true
	}
	nblocks, w := binary.Uvarint(data)
	if w <= 0 {
		return fmt.Errorf("block count")
	}
	data = data[w:]
	t.blocks = make([]blockMeta, 0, nblocks)
	for i := uint64(0); i < nblocks; i++ {
		off, w := binary.Uvarint(data)
		if w <= 0 {
			return fmt.Errorf("block %d offset", i)
		}
		data = data[w:]
		length, w := binary.Uvarint(data)
		if w <= 0 {
			return fmt.Errorf("block %d length", i)
		}
		data = data[w:]
		first, ok := readStr()
		if !ok {
			return fmt.Errorf("block %d first key", i)
		}
		t.blocks = append(t.blocks, blockMeta{off: int64(off), length: int(length), firstKey: first})
	}
	var ok bool
	if t.minKey, ok = readStr(); !ok {
		return fmt.Errorf("min key")
	}
	if t.maxKey, ok = readStr(); !ok {
		return fmt.Errorf("max key")
	}
	count, w := binary.Uvarint(data)
	if w <= 0 {
		return fmt.Errorf("entry count")
	}
	if len(data[w:]) != 0 {
		return fmt.Errorf("%d trailing bytes", len(data[w:]))
	}
	t.count = int(count)
	return nil
}

// get looks key up in the table. A bloom-filter miss answers without
// touching disk. The returned value aliases a freshly read block
// buffer. A CRC or decode failure is returned as err — the engine
// escalates it, never serving data past a failed check.
func (t *table) get(key string, st *lsmStats) (val []byte, tomb, found bool, err error) {
	if len(t.blocks) == 0 || key < t.minKey || key > t.maxKey {
		return nil, false, false, nil
	}
	if st != nil {
		st.bloomChecks.Add(1)
	}
	if !t.filter.mayContain(bloomHash(key)) {
		if st != nil {
			st.bloomSkips.Add(1)
		}
		return nil, false, false, nil
	}
	// Last block whose first key <= key.
	i := sort.Search(len(t.blocks), func(i int) bool { return t.blocks[i].firstKey > key }) - 1
	if i < 0 {
		return nil, false, false, nil
	}
	if st != nil {
		st.blockReads.Add(1)
	}
	payload, err := t.readFrame(t.blocks[i].off, t.blocks[i].length)
	if err != nil {
		return nil, false, false, fmt.Errorf("sstable %s block %d: %w", t.path, i, err)
	}
	for pos := 0; pos < len(payload); {
		e, next, derr := decodeBlockEntry(payload, pos)
		if derr != nil {
			return nil, false, false, fmt.Errorf("sstable %s block %d: %w", t.path, i, derr)
		}
		if e.key == key {
			return e.value, e.tomb, true, nil
		}
		if e.key > key {
			break
		}
		pos = next
	}
	return nil, false, false, nil
}

// decodeBlockEntry parses the entry at payload[pos:]. The value aliases
// payload.
func decodeBlockEntry(payload []byte, pos int) (lsmEntry, int, error) {
	if pos >= len(payload) {
		return lsmEntry{}, 0, fmt.Errorf("entry at %d: out of bounds", pos)
	}
	op := payload[pos]
	rest := payload[pos+1:]
	klen, w := binary.Uvarint(rest)
	if w <= 0 || uint64(len(rest)-w) < klen {
		return lsmEntry{}, 0, fmt.Errorf("entry at %d: key length", pos)
	}
	key := string(rest[w : w+int(klen)])
	rest = rest[w+int(klen):]
	consumed := 1 + w + int(klen)
	switch op {
	case opDelete:
		return lsmEntry{key: key, tomb: true}, pos + consumed, nil
	case opPut:
		vlen, w := binary.Uvarint(rest)
		if w <= 0 || uint64(len(rest)-w) < vlen {
			return lsmEntry{}, 0, fmt.Errorf("entry at %d: value length", pos)
		}
		val := rest[w : w+int(vlen) : w+int(vlen)]
		return lsmEntry{key: key, value: val}, pos + consumed + w + int(vlen), nil
	default:
		return lsmEntry{}, 0, fmt.Errorf("entry at %d: op %d", pos, op)
	}
}

// sstWriter streams sorted entries into a new table file.
type sstWriter struct {
	f      *os.File
	path   string
	block  []byte // current data block, header placeholder included
	first  string // first key of the current block
	blocks []blockMeta
	off    int64
	hashes []uint64
	minKey string
	maxKey string
	count  int
}

// newSSTWriter creates sst-<fileNo>.sst (truncating any orphan of a
// crashed earlier run).
func newSSTWriter(dir string, fileNo uint64) (*sstWriter, error) {
	path := sstPath(dir, fileNo)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: sstable create %s: %w", path, err)
	}
	return &sstWriter{f: f, path: path}, nil
}

// add appends one entry; keys must arrive in strictly ascending order.
func (w *sstWriter) add(e lsmEntry) error {
	if w.count == 0 {
		w.minKey = e.key
	}
	w.maxKey = e.key
	w.count++
	w.hashes = append(w.hashes, bloomHash(e.key))
	if len(w.block) == 0 {
		w.block = append(w.block, make([]byte, walframe.HeaderLen)...)
		w.first = e.key
	}
	if e.tomb {
		w.block = append(w.block, opDelete)
		w.block = binary.AppendUvarint(w.block, uint64(len(e.key)))
		w.block = append(w.block, e.key...)
	} else {
		w.block = append(w.block, opPut)
		w.block = binary.AppendUvarint(w.block, uint64(len(e.key)))
		w.block = append(w.block, e.key...)
		w.block = binary.AppendUvarint(w.block, uint64(len(e.value)))
		w.block = append(w.block, e.value...)
	}
	if len(w.block) >= blockTargetBytes {
		return w.cutBlock()
	}
	return nil
}

func (w *sstWriter) cutBlock() error {
	if len(w.block) == 0 {
		return nil
	}
	walframe.Seal(w.block)
	if _, err := w.f.Write(w.block); err != nil {
		return fmt.Errorf("storage: sstable write %s: %w", w.path, err)
	}
	w.blocks = append(w.blocks, blockMeta{off: w.off, length: len(w.block), firstKey: w.first})
	w.off += int64(len(w.block))
	w.block = w.block[:0]
	return nil
}

// writeFrame frames and writes an index/bloom/footer payload.
func (w *sstWriter) writeFrame(payload []byte) error {
	frame := make([]byte, walframe.HeaderLen, walframe.HeaderLen+len(payload))
	frame = append(frame, payload...)
	walframe.Seal(frame)
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("storage: sstable write %s: %w", w.path, err)
	}
	w.off += int64(len(frame))
	return nil
}

// finish writes index, bloom and footer, fsyncs and closes the file. The
// caller opens the result with openTable (re-validating everything) or
// deletes it.
func (w *sstWriter) finish() error {
	if err := w.cutBlock(); err != nil {
		w.abort()
		return err
	}
	indexOff := w.off
	index := binary.AppendUvarint(nil, uint64(len(w.blocks)))
	for _, b := range w.blocks {
		index = binary.AppendUvarint(index, uint64(b.off))
		index = binary.AppendUvarint(index, uint64(b.length))
		index = binary.AppendUvarint(index, uint64(len(b.firstKey)))
		index = append(index, b.firstKey...)
	}
	index = binary.AppendUvarint(index, uint64(len(w.minKey)))
	index = append(index, w.minKey...)
	index = binary.AppendUvarint(index, uint64(len(w.maxKey)))
	index = append(index, w.maxKey...)
	index = binary.AppendUvarint(index, uint64(w.count))
	if err := w.writeFrame(index); err != nil {
		w.abort()
		return err
	}
	bloomOff := w.off
	if err := w.writeFrame(buildBloom(w.hashes).encode(nil)); err != nil {
		w.abort()
		return err
	}
	footer := make([]byte, 0, sstFooterLen-walframe.HeaderLen)
	footer = append(footer, sstMagic...)
	footer = append(footer, sstVersion)
	footer = binary.BigEndian.AppendUint64(footer, uint64(indexOff))
	footer = binary.BigEndian.AppendUint64(footer, uint64(bloomOff))
	if err := w.writeFrame(footer); err != nil {
		w.abort()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.abort()
		return fmt.Errorf("storage: sstable sync %s: %w", w.path, err)
	}
	return w.f.Close()
}

// abort closes and removes a partially written file.
func (w *sstWriter) abort() {
	_ = w.f.Close()
	_ = os.Remove(w.path)
}

// tableIter iterates a table's entries in ascending key order starting
// at the first key >= start, loading blocks lazily. It implements
// lsmSource for merged iteration; tombstones are yielded.
type tableIter struct {
	t        *table
	blockIdx int
	payload  []byte
	pos      int
	cur      lsmEntry
	ok       bool
	prefix   string
	err      error
}

// newTableIter positions an iterator at the first key >= start. prefix,
// when non-empty, ends the iteration at the first key without it.
func newTableIter(t *table, start, prefix string) *tableIter {
	it := &tableIter{t: t, prefix: prefix}
	// First candidate block: the last one whose first key <= start (an
	// earlier key could live mid-block); fall back to block 0.
	idx := sort.Search(len(t.blocks), func(i int) bool { return t.blocks[i].firstKey > start }) - 1
	if idx < 0 {
		idx = 0
	}
	it.blockIdx = idx
	if len(t.blocks) == 0 {
		return it
	}
	if it.loadBlock() {
		it.advance()
		for it.ok && it.cur.key < start {
			it.advance()
		}
	}
	it.checkPrefix()
	return it
}

func (it *tableIter) loadBlock() bool {
	if it.blockIdx >= len(it.t.blocks) {
		it.ok = false
		return false
	}
	b := it.t.blocks[it.blockIdx]
	payload, err := it.t.readFrame(b.off, b.length)
	if err != nil {
		it.err = fmt.Errorf("sstable %s block %d: %w", it.t.path, it.blockIdx, err)
		it.ok = false
		return false
	}
	it.payload, it.pos = payload, 0
	return true
}

// advance steps to the next entry, crossing block boundaries.
func (it *tableIter) advance() {
	for it.pos >= len(it.payload) {
		it.blockIdx++
		if it.blockIdx >= len(it.t.blocks) {
			it.ok = false
			return
		}
		if !it.loadBlock() {
			return
		}
	}
	e, next, err := decodeBlockEntry(it.payload, it.pos)
	if err != nil {
		it.err = fmt.Errorf("sstable %s block %d: %w", it.t.path, it.blockIdx, err)
		it.ok = false
		return
	}
	it.cur, it.pos, it.ok = e, next, true
}

func (it *tableIter) checkPrefix() {
	if it.ok && it.prefix != "" && !strings.HasPrefix(it.cur.key, it.prefix) {
		it.ok = false
	}
}

func (it *tableIter) valid() bool     { return it.ok }
func (it *tableIter) entry() lsmEntry { return it.cur }
func (it *tableIter) next() {
	it.advance()
	it.checkPrefix()
}
