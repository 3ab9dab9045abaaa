package storage

// SSTables are the LSM engine's immutable sorted runs, in LevelDB's table
// layout. One file is a sequence of walframe-framed blocks — the same
// [len][CRC][payload] framing as the block logs, so every byte read back
// from disk is checksummed:
//
//	[data block]...[data block][index block][bloom block][footer]
//
// Data and index blocks share one payload layout: entries in ascending
// key order, each
//
//	op byte (0 put, 1 tombstone), uvarint shared, uvarint unshared,
//	key[shared:] (unshared bytes), and for a put uvarint value length
//	plus the value
//
// where shared is how many leading bytes the key has in common with the
// previous entry's key. Every restartInterval-th entry is a restart
// point: shared is 0 and the key is stored whole. The payload ends with
// the restart points' offsets into it and their count, each a big-endian
// uint32. A lookup binary-searches the restart keys in place and then
// scans at most restartInterval entries, rebuilding each key from the
// one before. Data blocks are cut at ~4 KiB, so a point lookup reads one
// block, not the file.
//
// Index block payload: uvarint min-key length + min key and uvarint
// max-key length + max key (the table's key-range fences), then a block
// in the layout above holding one put per data block, in file order. Its
// key is a separator, at least the block's last key and below the next
// block's first key (see separator; the last block's is its last key),
// so the block that may hold a key is the first whose separator is >= it.
// Its value is the block's file offset and framed length, two uvarints.
// An open table keeps the index block as one byte slice, checked whole at
// open; data blocks are read lazily.
//
// Bloom block payload: the serialised filter over every key in the table
// (see bloom.go). An empty payload reads as a filter that rules nothing
// out.
//
// Footer: a fixed-size frame closing the file — magic "SST1", a version
// byte (2), and the index and bloom block offsets as 8-byte big-endian —
// read first at open to locate everything else. A table in another
// version is refused at open: there is no migration.
//
// Readers never trust unchecked bytes: the footer, index, bloom and
// every data block must pass CRC validation, every decode is
// bounds-checked, and the engine turns a failed check on the read path
// into a loud panic rather than serving a possibly-wrong value.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"socialchain/internal/walframe"
)

const (
	sstPrefix = "sst-"
	sstSuffix = ".sst"

	sstMagic   = "SST1"
	sstVersion = 2

	// sstFooterLen is the framed footer's total size: HeaderLen + magic(4)
	// + version(1) + indexOff(8) + bloomOff(8).
	sstFooterLen = walframe.HeaderLen + 4 + 1 + 8 + 8

	// blockTargetBytes cuts data blocks once their payload crosses this
	// size; a point lookup then reads ~one block from disk.
	blockTargetBytes = 4 << 10

	// restartInterval is LevelDB's default: a lookup scans at most 16
	// entries past its binary search, and a restart point's whole key and
	// 4-byte offset are paid once per 16 entries.
	restartInterval = 16

	// maxPooledBlock bounds the lookup buffers kept for reuse: a block
	// grown past it by one large value is read once and left to the
	// collector.
	maxPooledBlock = 64 << 10

	// A block entry's first byte: a value or a tombstone.
	opPut    = 0
	opDelete = 1
)

func sstPath(dir string, fileNo uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", sstPrefix, fileNo, sstSuffix))
}

// The ways a block or an index fails to decode. Each is bare, so damaged
// bytes cost a lookup or a fuzz run no allocation; callers name the table
// and the block.
var (
	errBlockTrailer = errors.New("malformed block: restart array")
	errBlockEntry   = errors.New("malformed block: entry")
	errBlockRestart = errors.New("malformed block: restart point")
	errBlockOrder   = errors.New("malformed block: keys out of order")
	errBlockHandle  = errors.New("malformed index: block handle")
	errIndexFences  = errors.New("malformed index: key-range fences")
	errIndexTiling  = errors.New("malformed index: blocks do not tile the data region")
)

// blockBuilder prefix-compresses entries, added in ascending key order,
// into one block payload.
type blockBuilder struct {
	buf      []byte // base reserved bytes (a frame header), then the entries
	base     int
	restarts []uint32
	n        int    // entries in the block
	prev     []byte // the last key added; kept across reset
}

// reset starts a new block behind reserve zero bytes.
func (b *blockBuilder) reset(reserve int) {
	b.buf = append(b.buf[:0], make([]byte, reserve)...)
	b.base = reserve
	b.restarts = b.restarts[:0]
	b.n = 0
}

func (b *blockBuilder) add(tomb bool, key string, value []byte) {
	shared := 0
	if b.n%restartInterval == 0 {
		b.restarts = append(b.restarts, uint32(len(b.buf)-b.base))
	} else {
		shared = commonPrefix(b.prev, key)
	}
	op := byte(opPut)
	if tomb {
		op = opDelete
	}
	b.buf = append(b.buf, op)
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = append(b.buf, key[shared:]...)
	if !tomb {
		b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
		b.buf = append(b.buf, value...)
	}
	b.prev = append(b.prev[:0], key...)
	b.n++
}

// size is the payload length finish would return.
func (b *blockBuilder) size() int { return len(b.buf) - b.base + 4*len(b.restarts) + 4 }

// finish appends the restart array and returns the reserved bytes plus
// the payload.
func (b *blockBuilder) finish() []byte {
	for _, r := range b.restarts {
		b.buf = binary.BigEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.BigEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// separator returns a short key s with a <= s < b, for a < b: a up to
// the byte after the first one where the two differ, that byte raised by
// one (LevelDB's shortest separator, taken one byte later so it never
// depends on the gap between the bytes that differ).
func separator(a []byte, b string) string {
	for q := commonPrefix(a, b) + 1; q < len(a); q++ {
		if a[q] != 0xff {
			s := append([]byte(nil), a[:q+1]...)
			s[q]++
			return string(s)
		}
	}
	return string(a)
}

func commonPrefix(a []byte, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// blockIter walks one block's entries in order, rebuilding each key from
// the one before. Every read is bounds-checked: a malformed block stops
// the walk with err set, never a panic. key and val alias the iterator's
// buffer and the block; both change on the next move.
type blockIter struct {
	data     []byte // the entries, restart array cut off
	restarts []byte // big-endian uint32 offsets into data
	off      int    // where the next entry starts
	key      []byte
	val      []byte
	tomb     bool
	err      error
}

// init points the iterator before the first entry of block.
func (it *blockIter) init(block []byte) error {
	it.data, it.restarts, it.off, it.key, it.val, it.err = nil, nil, 0, it.key[:0], nil, nil
	if len(block) < 4 {
		return it.fail(errBlockTrailer)
	}
	n := binary.BigEndian.Uint32(block[len(block)-4:])
	body := len(block) - 4
	if uint64(n)*4 > uint64(body) {
		return it.fail(errBlockTrailer)
	}
	rs := body - 4*int(n)
	it.data, it.restarts = block[:rs], block[rs:body]
	if (n == 0) != (rs == 0) || (n > 0 && binary.BigEndian.Uint32(it.restarts) != 0) {
		return it.fail(errBlockTrailer)
	}
	return nil
}

func (it *blockIter) fail(err error) error {
	if it.err == nil {
		it.err = err
	}
	return it.err
}

// next moves to the following entry; false at the end or on damage.
func (it *blockIter) next() bool {
	if it.err != nil || it.off >= len(it.data) {
		return false
	}
	e := it.data[it.off:]
	p := 1
	shared, w := binary.Uvarint(e[p:])
	if w <= 0 || shared > uint64(len(it.key)) {
		it.fail(errBlockEntry)
		return false
	}
	p += w
	unshared, w := binary.Uvarint(e[p:])
	if w <= 0 || unshared > uint64(len(e)-p-w) {
		it.fail(errBlockEntry)
		return false
	}
	p += w
	it.key = append(it.key[:shared], e[p:p+int(unshared)]...)
	p += int(unshared)
	switch e[0] {
	case opDelete:
		it.val, it.tomb = nil, true
	case opPut:
		vlen, w := binary.Uvarint(e[p:])
		if w <= 0 || vlen > uint64(len(e)-p-w) {
			it.fail(errBlockEntry)
			return false
		}
		p += w
		it.val, it.tomb = e[p:p+int(vlen):p+int(vlen)], false
		p += int(vlen)
	default:
		it.fail(errBlockEntry)
		return false
	}
	it.off += p
	return true
}

// restartKey returns restart point i's offset and its whole key, in place.
func (it *blockIter) restartKey(i int) (int, []byte, bool) {
	off := int(binary.BigEndian.Uint32(it.restarts[4*i:]))
	if off >= len(it.data) {
		it.fail(errBlockRestart)
		return 0, nil, false
	}
	e := it.data[off+1:]
	shared, w := binary.Uvarint(e)
	if w <= 0 || shared != 0 {
		it.fail(errBlockRestart)
		return 0, nil, false
	}
	unshared, w2 := binary.Uvarint(e[w:])
	if w2 <= 0 || unshared > uint64(len(e)-w-w2) {
		it.fail(errBlockRestart)
		return 0, nil, false
	}
	return off, e[w+w2 : w+w2+int(unshared)], true
}

// seekRestart places the iterator before the last restart point whose key
// is <= target, or before the first entry when there is none.
func (it *blockIter) seekRestart(target string) bool {
	lo, hi := 0, len(it.restarts)/4 // the answer lies in [lo, hi)
	at := 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		off, k, ok := it.restartKey(mid)
		if !ok {
			return false
		}
		if string(k) <= target {
			lo, at = mid+1, off
		} else {
			hi = mid
		}
	}
	it.off, it.key = at, it.key[:0]
	return true
}

// seekGE moves to the first entry whose key is >= target; false if none.
func (it *blockIter) seekGE(target string) bool {
	if !it.seekRestart(target) {
		return false
	}
	for it.next() {
		if string(it.key) >= target {
			return true
		}
	}
	return false
}

// checkBlock walks a whole block and returns its entry count, refusing
// one whose keys do not ascend or whose restart points are not whole
// keys at entry boundaries — the contract the seeks rely on.
func checkBlock(block []byte, each func(it *blockIter) error) (int, error) {
	var it blockIter
	if err := it.init(block); err != nil {
		return 0, err
	}
	nr := len(it.restarts) / 4
	for r := 0; r < nr; r++ {
		if _, _, ok := it.restartKey(r); !ok {
			return 0, it.err
		}
	}
	n, r := 0, 0
	var prev []byte
	for {
		start := it.off
		if !it.next() {
			break
		}
		if r < nr && int(binary.BigEndian.Uint32(it.restarts[4*r:])) == start {
			r++
		}
		if n > 0 && bytes.Compare(it.key, prev) <= 0 {
			return 0, it.fail(errBlockOrder)
		}
		if each != nil {
			if err := each(&it); err != nil {
				return 0, err
			}
		}
		prev = append(prev[:0], it.key...)
		n++
	}
	if it.err != nil {
		return 0, it.err
	}
	if r != nr {
		return 0, it.fail(errBlockRestart)
	}
	return n, nil
}

// blockHandle decodes an index entry's value: the data block's offset and
// framed length.
func blockHandle(val []byte) (off int64, length int, err error) {
	o, w := binary.Uvarint(val)
	if w <= 0 {
		return 0, 0, errBlockHandle
	}
	l, w2 := binary.Uvarint(val[w:])
	if w2 <= 0 || w+w2 != len(val) || o > 1<<62 || l > 1<<31 {
		return 0, 0, errBlockHandle
	}
	return int64(o), int(l), nil
}

// parseIndex splits an index block payload into its fences and its block
// of handles, checking the block whole: the handles must tile the data
// region [0, dataEnd) in order, so no later lookup meets a bad one.
func parseIndex(payload []byte, dataEnd int64) (minKey, maxKey string, block []byte, nblocks int, err error) {
	readStr := func() (string, bool) {
		n, w := binary.Uvarint(payload)
		if w <= 0 || uint64(len(payload)-w) < n {
			return "", false
		}
		s := string(payload[w : w+int(n)])
		payload = payload[w+int(n):]
		return s, true
	}
	var ok bool
	if minKey, ok = readStr(); !ok {
		return "", "", nil, 0, errIndexFences
	}
	if maxKey, ok = readStr(); !ok {
		return "", "", nil, 0, errIndexFences
	}
	next := int64(0)
	nblocks, err = checkBlock(payload, func(it *blockIter) error {
		off, length, err := blockHandle(it.val)
		if err != nil {
			return err
		}
		if it.tomb || off != next || length < walframe.HeaderLen {
			return errIndexTiling
		}
		next += int64(length)
		return nil
	})
	if err != nil {
		return "", "", nil, 0, err
	}
	if next != dataEnd {
		return "", "", nil, 0, errIndexTiling
	}
	return minKey, maxKey, payload, nblocks, nil
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
	path    string
	f       *os.File
	fileNo  uint64
	index   []byte // the index block, checked whole at open
	nblocks int
	filter  bloomFilter
	minKey  string
	maxKey  string
	size    int64

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

// indexBytes is what the open table holds to find a key's block: the
// index block and the fences (the bloom filter not counted).
func (t *table) indexBytes() int64 {
	return int64(len(t.index) + len(t.minKey) + len(t.maxKey))
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
	if string(payload[:4]) != sstMagic {
		return fmt.Errorf("storage: sstable %s: bad magic", t.path)
	}
	if v := payload[4]; v != sstVersion {
		older := ""
		if v < sstVersion {
			older = ", written by an older build"
		}
		return fmt.Errorf("storage: sstable %s is in format %d%s; this build reads sstable format %d only (no migration: delete the data directory)",
			t.path, v, older, sstVersion)
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
	var block []byte
	if t.minKey, t.maxKey, block, t.nblocks, err = parseIndex(index, indexOff); err != nil {
		return fmt.Errorf("storage: sstable %s index corrupt: %w", t.path, err)
	}
	t.index = bytes.Clone(block) // not the frame around it
	bloom, err := t.readFrame(bloomOff, int(t.size-sstFooterLen-bloomOff))
	if err != nil {
		return fmt.Errorf("storage: sstable %s bloom: %w", t.path, err)
	}
	if t.filter, err = decodeBloom(bloom); err != nil {
		return fmt.Errorf("storage: sstable %s bloom corrupt: %w", t.path, err)
	}
	return nil
}

// readFrame preads a framed block spanning [off, off+length) into a fresh
// buffer and returns its CRC-validated payload.
func (t *table) readFrame(off int64, length int) ([]byte, error) {
	if length < walframe.HeaderLen || off < 0 || off+int64(length) > t.size {
		return nil, fmt.Errorf("bad block bounds [%d,+%d)", off, length)
	}
	return t.readFrameInto(make([]byte, length), off)
}

// readFrameInto preads the frame at off into buf, whose length is the
// frame's, and returns its CRC-validated payload, aliasing buf.
func (t *table) readFrameInto(buf []byte, off int64) ([]byte, error) {
	if _, err := t.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	payload, next, err := walframe.Next(buf, 0)
	if err != nil {
		return nil, err
	}
	if next != len(buf) {
		return nil, fmt.Errorf("block at %d: %d trailing bytes", off, len(buf)-next)
	}
	return payload, nil
}

// lookup is one point lookup's reusable memory: the block buffer and the
// two iterators' key buffers.
type lookup struct {
	buf    []byte
	ix, db blockIter
}

var lookups = sync.Pool{New: func() any { return new(lookup) }}

// get looks key up in the table. A bloom-filter miss answers without
// touching disk. The block is read into a pooled buffer and keys are
// compared in place, so a hit allocates the returned value and nothing
// else. A CRC or decode failure is returned as err — the engine escalates
// it, never serving data past a failed check.
func (t *table) get(key string, st *lsmStats) (val []byte, tomb, found bool, err error) {
	if t.nblocks == 0 || key < t.minKey || key > t.maxKey {
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
	l := lookups.Get().(*lookup)
	defer func() {
		if cap(l.buf) <= maxPooledBlock {
			lookups.Put(l)
		}
	}()
	if l.ix.init(t.index) != nil || !l.ix.seekGE(key) {
		if l.ix.err != nil {
			return nil, false, false, fmt.Errorf("sstable %s index: %w", t.path, l.ix.err)
		}
		return nil, false, false, nil
	}
	off, length, err := blockHandle(l.ix.val)
	if err != nil {
		return nil, false, false, fmt.Errorf("sstable %s index: %w", t.path, err)
	}
	if st != nil {
		st.blockReads.Add(1)
	}
	if cap(l.buf) < length {
		l.buf = make([]byte, length)
	}
	payload, err := t.readFrameInto(l.buf[:length], off)
	if err == nil {
		err = l.db.init(payload)
	}
	if err == nil && l.db.seekGE(key) && string(l.db.key) == key {
		return bytes.Clone(l.db.val), l.db.tomb, true, nil
	}
	if err == nil {
		err = l.db.err
	}
	if err != nil {
		return nil, false, false, fmt.Errorf("sstable %s block at %d: %w", t.path, off, err)
	}
	return nil, false, false, nil
}

// sstWriter streams sorted entries into a new table file.
type sstWriter struct {
	f      *os.File
	path   string
	data   blockBuilder // the current data block, frame header reserved
	index  blockBuilder
	handle []byte // the last block cut, until the next key shows its separator
	off    int64
	hashes []uint64
	minKey string
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
	w := &sstWriter{f: f, path: path}
	w.data.reset(walframe.HeaderLen)
	return w, nil
}

// add appends one entry; keys must arrive in strictly ascending order.
func (w *sstWriter) add(e lsmEntry) error {
	if w.count == 0 {
		w.minKey = e.key
	}
	if len(w.handle) > 0 {
		w.index.add(false, separator(w.data.prev, e.key), w.handle)
		w.handle = w.handle[:0]
	}
	w.count++
	w.hashes = append(w.hashes, bloomHash(e.key))
	w.data.add(e.tomb, e.key, e.value)
	if w.data.size() >= blockTargetBytes {
		return w.cutBlock()
	}
	return nil
}

func (w *sstWriter) cutBlock() error {
	if w.data.n == 0 {
		return nil
	}
	frame := w.data.finish()
	walframe.Seal(frame)
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("storage: sstable write %s: %w", w.path, err)
	}
	w.handle = binary.AppendUvarint(w.handle[:0], uint64(w.off))
	w.handle = binary.AppendUvarint(w.handle, uint64(len(frame)))
	w.off += int64(len(frame))
	w.data.reset(walframe.HeaderLen)
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
	if len(w.handle) > 0 {
		w.index.add(false, string(w.data.prev), w.handle) // the last block's: its last key
	}
	indexOff := w.off
	index := binary.AppendUvarint(nil, uint64(len(w.minKey)))
	index = append(index, w.minKey...)
	index = binary.AppendUvarint(index, uint64(len(w.data.prev)))
	index = append(index, w.data.prev...)
	index = append(index, w.index.finish()...)
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
// at the first key >= start, loading blocks lazily, each into a buffer
// of its own (the entries it yields alias it). It implements lsmSource
// for merged iteration; tombstones are yielded.
type tableIter struct {
	t      *table
	ix     blockIter // over t.index, at the current data block's handle
	blk    blockIter // over the current data block
	cur    lsmEntry
	ok     bool
	prefix string
	err    error
}

// newTableIter positions an iterator at the first key >= start. prefix,
// when non-empty, ends the iteration at the first key without it.
func newTableIter(t *table, start, prefix string) *tableIter {
	it := &tableIter{t: t, prefix: prefix}
	// The first block whose separator is >= start: every earlier block
	// ends below start.
	if it.ix.init(t.index) != nil || !it.ix.seekGE(start) {
		if it.ix.err != nil {
			it.err = fmt.Errorf("sstable %s index: %w", t.path, it.ix.err)
		}
		return it
	}
	if !it.loadBlock() {
		return it
	}
	if it.blk.seekGE(start) {
		it.setCur()
	} else {
		it.advance()
	}
	it.checkPrefix()
	return it
}

// loadBlock reads the block the index iterator is at.
func (it *tableIter) loadBlock() bool {
	off, length, err := blockHandle(it.ix.val)
	var payload []byte
	if err == nil {
		payload, err = it.t.readFrame(off, length)
	}
	if err == nil {
		err = it.blk.init(payload)
	}
	if err != nil {
		it.err = fmt.Errorf("sstable %s block at %d: %w", it.t.path, off, err)
		it.ok = false
		return false
	}
	return true
}

func (it *tableIter) setCur() {
	it.cur, it.ok = lsmEntry{key: string(it.blk.key), value: it.blk.val, tomb: it.blk.tomb}, true
}

// advance steps to the next entry, crossing block boundaries.
func (it *tableIter) advance() {
	for !it.blk.next() {
		if it.blk.err != nil {
			it.err = fmt.Errorf("sstable %s: %w", it.t.path, it.blk.err)
			it.ok = false
			return
		}
		if !it.ix.next() {
			it.err, it.ok = it.ix.err, false
			return
		}
		if !it.loadBlock() {
			return
		}
	}
	it.setCur()
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
