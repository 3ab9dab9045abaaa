package storage

// The persist engine is an LSM tree — the structure beneath the
// world-state database of the paper's Fabric deployment (LevelDB), built
// here from the repo's own primitives. Writes land in a sorted memtable;
// full memtables flush into immutable SSTables (see sstable.go); a
// crash-safe manifest (manifest.go) names the live tables; a background
// compactor merges runs level by level, dropping shadowed versions and
// tombstones. RAM holds one memtable and open loads only the manifest and
// the tables' indexes, never O(total state).
//
// The engine keeps no log of its own. Each owner already appends every
// write to a front log before it calls ApplyBatch — a peer's block log
// (blocks.wal) and an IPFS node's blocks.log — and records in the same
// batch a savepoint naming how far its log is applied. After a crash the
// owner opens the engine, reads the savepoint from the tables and replays
// its log above it: the memtable is rebuilt from the front log, so a
// second copy of each write would buy nothing (WiscKey, Lu et al., FAST
// '16: a value log that holds every key and value needs no LSM log
// beside it). Every production write to a persist engine is covered that
// way: a peer's block batch (peer.commitValidated), an IPFS node's index
// entries (blockstore.Put, and Open's re-index above its savepoint), and
// statedb's index rebuild, which open recomputes whenever the stored
// spec list is not in step with the configured one. A write with no front
// log behind it (Restore, a bare storage.Open) is durable from the next
// flush or Close.
//
// On-disk layout inside Config.Dir:
//
//	MANIFEST        root pointer: live tables per level, next file number
//	                (atomic rewrite)
//	sst-<n>.sst     immutable sorted runs (see sstable.go)
//	*.tmp           in-progress manifest writes (cleaned on open)
//
// A directory holding an older build's wal-<n>.log files, or its mapwal
// snap-<n>.db snapshots, is refused and left as it was.
//
// Writes are blind, as in LevelDB: ApplyBatch puts each entry straight
// into the memtable without reading what lies beneath it, so a write
// never waits on a table read and never holds the engine lock across one.
// A delete always writes a tombstone, and the compaction that merges into
// the bottom level drops it. One batch lands in one memtable, so it
// reaches disk whole in one table or not at all.
//
// Reads merge newest-to-oldest: active memtable, flushing memtable, then
// level 0 downwards, newest table first within a level; the first
// version of a key wins, and a tombstone at any layer hides older
// values. Correctness of that order rests on data only moving DOWN the
// levels, and always via whole-level merges, so within and across levels
// "earlier in search order" always means "written later".
//
// Crash safety invariants, in write order:
//
//  1. No table ever names a savepoint above its front log's durable end.
//     A flush makes its table durable, then calls Config.SyncFront, which
//     fsyncs the owner's front log — covering every savepoint in the
//     flushed memtable, since the owner appended before it wrote — and
//     only then publishes the manifest. A SyncFront error is sticky: no
//     manifest is written after it.
//  2. A flushed/compacted table is fsynced before the manifest names it.
//  3. The manifest rename is atomic (tmp + fsync + rename + dir fsync).
//  4. Replaced tables are deleted only AFTER the manifest that obsoletes
//     them is durable. Orphans (tables the manifest does not name) are
//     deleted at open.
//  5. Compaction rewrites flushed tables only, so a compaction manifest
//     names no savepoint a flush manifest did not already cover.
//  6. Close is a checkpoint, and a checkpoint is a flush: Close refuses
//     new writes, seals the active memtable and runs it through doFlush
//     (and the compaction that flush makes due), so it obeys 1-5 at every
//     step. A crash anywhere inside Close is a crash inside a flush: the
//     owner's replay lands on the state Close started from.
//
// After a clean stop the directory holds the manifest and the tables it
// names, and the savepoint in them is the front log's end, so the owner
// replays nothing. After kill -9 the memtable is gone and the owner
// replays its log above the last flushed savepoint. The only engine that
// skips the checkpoint is one with a sticky I/O error, which cannot vouch
// for a table it would write and leaves the front log as the truth.
//
// Durability (Config.Durability) no longer changes what the engine does:
// the engine resolves it (DurabilityEnvVar overrides an empty value) and
// reports it in Stats, and each owner applies it to its front log
// (walframe.Policy): "none" leaves the log to the page cache and the next
// flush, "batch" fsyncs it within 5 ms of an append, and "always" fsyncs
// each append before the owner writes the engine.
//
// Integrity: every byte read back — manifest, table blocks — is CRC
// validated. On the read path a failed check panics rather than serving
// a possibly-wrong value; at open it is a refusal to start.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"socialchain/internal/obs"
)

const (
	// DefaultMemtableBytes is the memtable flush threshold of every engine
	// a deployment opens: a peer's state and an IPFS node's CID index. What
	// they hold is mostly written once and not read again soon (records,
	// their history and index entries, block locations), so they flush
	// small and give the heap back; the peers and nodes of a process fill
	// and flush in step, so its heap swings by about their number times
	// this. The swing must stay small beside the rest of the heap, or where
	// in the cycle a process stands decides its heap. At 64 KiB it was
	// about 0.35 MB for four peers, a third of an idle deployment of
	// 1 MiB records (about 1 MB: their payloads live in the IPFS logs),
	// whose heap then read anywhere from 1.03 to 1.31 MB depending on how
	// many bytes the timing-dependent block cuts had written; at 16 KiB it
	// is about 0.09 MB.
	DefaultMemtableBytes int64 = 16 << 10
	// DefaultCompactFanout is how many tables a level accumulates before
	// they merge into the next level.
	DefaultCompactFanout = 4

	// Older builds kept a write-ahead log of wal-<n>.log files here, and
	// their mapwal engine cut snapshots named snap-<idx>.db beside it; the
	// persist engine refuses such a directory.
	walPrefix  = "wal-"
	walSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".db"
)

// lsmStats aggregates the engine's observability counters (plain
// atomics; bumped on hot paths, read at scrape time).
type lsmStats struct {
	flushes        atomic.Int64
	flushedBytes   atomic.Int64
	compactions    atomic.Int64
	compactedBytes atomic.Int64
	stallWaits     atomic.Int64
	bloomChecks    atomic.Int64
	bloomSkips     atomic.Int64
	blockReads     atomic.Int64
	frontSyncs     atomic.Int64
}

// PersistStats is a point-in-time snapshot of the engine's shape and
// counters, surfaced through Stats()/Register and the node /statusz.
type PersistStats struct {
	SSTables          int   `json:"sstables"`
	Levels            int   `json:"levels"`
	MemtableBytes     int64 `json:"memtable_bytes"`
	CompactionBacklog int   `json:"compaction_backlog"`
	Flushes           int64 `json:"flushes"`
	FlushedBytes      int64 `json:"flushed_bytes"`
	Compactions       int64 `json:"compactions"`
	CompactedBytes    int64 `json:"compacted_bytes"`
	StallWaits        int64 `json:"stall_waits"`
	BloomChecks       int64 `json:"bloom_checks"`
	BloomSkips        int64 `json:"bloom_skips"`
	BlockReads        int64 `json:"block_reads"`
	// WALFsyncs counts the front-log fsyncs flushes asked the owner for
	// (Config.SyncFront calls).
	WALFsyncs  int64      `json:"wal_fsyncs"`
	Durability Durability `json:"durability"`
	// IndexBytes is what the live tables keep in memory to find a key:
	// their index blocks, key-range fences and bloom filters.
	IndexBytes int64 `json:"index_bytes"`
}

// lsmVersion is an immutable snapshot of the table set. Readers pin a
// version (acquire/release) and search it lock-free; flush and
// compaction install a fresh version under the engine lock. A version
// holds one reference on each of its tables; when the last version
// naming a table is released, the table's file is closed and — if a
// compaction marked it dead — deleted.
type lsmVersion struct {
	levels [][]*table
	refs   atomic.Int64
}

func newVersion(levels [][]*table) *lsmVersion {
	v := &lsmVersion{levels: levels}
	v.refs.Store(1)
	for _, lvl := range levels {
		for _, t := range lvl {
			t.ref()
		}
	}
	return v
}

func (v *lsmVersion) acquire() { v.refs.Add(1) }

func (v *lsmVersion) release() {
	if v.refs.Add(-1) == 0 {
		for _, lvl := range v.levels {
			for _, t := range lvl {
				t.unref()
			}
		}
	}
}

func (v *lsmVersion) fileNos() [][]uint64 {
	out := make([][]uint64, len(v.levels))
	for i, lvl := range v.levels {
		out[i] = make([]uint64, len(lvl))
		for j, t := range lvl {
			out[i][j] = t.fileNo
		}
	}
	return out
}

func cloneLevels(levels [][]*table) [][]*table {
	out := make([][]*table, len(levels))
	for i, lvl := range levels {
		out[i] = append([]*table(nil), lvl...)
	}
	return out
}

// searchVersion looks key up newest-to-oldest across the version's
// tables. found covers tombstones (tomb true means "deleted, stop").
func searchVersion(v *lsmVersion, key string, st *lsmStats) (val []byte, tomb, found bool, err error) {
	for _, lvl := range v.levels {
		for _, t := range lvl {
			val, tomb, found, err = t.get(key, st)
			if err != nil || found {
				return val, tomb, found, err
			}
		}
	}
	return nil, false, false, nil
}

// Persist is the LSM disk engine.
type Persist struct {
	mu        sync.RWMutex
	mem       *memtable
	imm       *memtable // flushing memtable (nil when none)
	version   *lsmVersion
	nextFile  uint64 // next SSTable file number (persisted in the manifest)
	err       error  // sticky I/O error, reported by Close
	closed    bool   // Close has begun: writes are refused
	dropped   bool   // a write reached a closed engine
	closeOnce sync.Once
	flushCond *sync.Cond // signalled when imm drains (or on error/close)

	// manifestMu serializes manifest writes so they happen outside p.mu
	// (readers never stall on manifest disk I/O) while each manifest
	// still reflects every previously written one. Lock order:
	// manifestMu before p.mu, never reversed.
	manifestMu sync.Mutex

	// compactMu admits one compactOnce at a time: Close runs the compaction
	// its checkpoint flush made due beside the compactor goroutine.
	compactMu sync.Mutex

	dir        string
	memLimit   int64
	fanout     int
	durability Durability
	syncFront  func() error

	flushC   chan struct{}
	compactC chan struct{}
	quit     chan struct{}
	wg       sync.WaitGroup

	stats lsmStats
}

// OpenPersist opens (or creates) an LSM persist engine in cfg.Dir from its
// manifest. An empty Dir materialises a fresh temporary directory (see
// Config.Dir).
func OpenPersist(cfg Config) (*Persist, error) {
	dir := cfg.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "socialchain-persist-"); err != nil {
			return nil, fmt.Errorf("storage: persist temp dir: %w", err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: persist dir %s: %w", dir, err)
	}
	durability, err := ParseDurability(string(cfg.Durability))
	if err != nil {
		return nil, err
	}
	if durability == "" {
		if durability, err = envDurability(); err != nil {
			return nil, err
		}
	}
	if durability == "" {
		durability = DurabilityNone
	}
	p := &Persist{
		mem:        newMemtable(),
		dir:        dir,
		memLimit:   cfg.MemtableBytes,
		fanout:     cfg.CompactFanout,
		durability: durability,
		syncFront:  cfg.SyncFront,
		flushC:     make(chan struct{}, 1),
		compactC:   make(chan struct{}, 1),
		quit:       make(chan struct{}),
	}
	p.flushCond = sync.NewCond(&p.mu)
	if p.memLimit <= 0 {
		p.memLimit = DefaultMemtableBytes
	}
	if p.fanout <= 0 {
		p.fanout = DefaultCompactFanout
	}
	if err := p.recover(); err != nil {
		return nil, err
	}
	p.wg.Add(2)
	go p.flusher()
	go p.compactor()
	return p, nil
}

// Dir returns the engine's data directory.
func (p *Persist) Dir() string { return p.dir }

// scanDir inventories the data directory's table file numbers, then
// deletes temp files. A write-ahead log or a snapshot an older build left
// refuses the open before anything is deleted.
func (p *Persist) scanDir() (map[uint64]bool, error) {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: persist scan %s: %w", p.dir, err)
	}
	ssts := make(map[uint64]bool)
	var tmps []string
	var hasWAL, hasSnaps bool
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			tmps = append(tmps, name)
		case strings.HasPrefix(name, walPrefix) && strings.HasSuffix(name, walSuffix):
			hasWAL = true
		case strings.HasPrefix(name, sstPrefix) && strings.HasSuffix(name, sstSuffix):
			if no, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, sstPrefix), sstSuffix), 16, 64); perr == nil {
				ssts[no] = true
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			hasSnaps = true
		}
	}
	switch {
	case hasSnaps:
		return nil, fmt.Errorf("storage: persist %s holds %s* snapshots written by an older build's mapwal engine; no migration", p.dir, snapPrefix)
	case hasWAL:
		return nil, fmt.Errorf("storage: persist %s holds %s* files, the write-ahead log an older build wrote; no migration", p.dir, walPrefix)
	}
	for _, name := range tmps {
		_ = os.Remove(filepath.Join(p.dir, name))
	}
	return ssts, nil
}

// recover loads the manifest, opens the live tables and deletes orphans
// of interrupted flushes/compactions. Open cost is O(tables), not
// O(total state); the owner's front log rebuilds what the memtable held.
func (p *Persist) recover() error {
	// The manifest is read before scanDir deletes anything, so a refused
	// manifest leaves the directory as it found it.
	m, haveManifest, err := readManifest(p.dir)
	if err != nil {
		return err
	}
	ssts, err := p.scanDir()
	if err != nil {
		return err
	}
	referenced := make(map[uint64]bool)
	levels := make([][]*table, len(m.levels))
	for i, lvl := range m.levels {
		for _, no := range lvl {
			referenced[no] = true
			t, terr := openTable(p.dir, no)
			if terr != nil {
				for _, l := range levels {
					for _, ot := range l {
						_ = ot.f.Close()
					}
				}
				return terr
			}
			levels[i] = append(levels[i], t)
		}
	}
	for no := range ssts {
		if !referenced[no] {
			_ = os.Remove(sstPath(p.dir, no))
		}
	}
	p.nextFile = m.nextFile
	if !haveManifest || p.nextFile == 0 {
		p.nextFile = 1
	}
	p.version = newVersion(levels)
	return nil
}

// corrupt escalates a CRC/decode failure on the read path: with no error
// return in the KV contract, the only honest answers are the right value
// or no answer at all.
func (p *Persist) corrupt(err error) {
	panic(fmt.Sprintf("storage: persist %s: %v (data integrity failure; refusing to serve possibly-wrong state)", p.dir, err))
}

func (p *Persist) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// maybeFlushLocked hands a full memtable to the flusher, stalling (with
// a counted wait) when the previous flush is still in flight. Caller
// holds p.mu.
func (p *Persist) maybeFlushLocked() {
	for p.err == nil && !p.closed && p.mem.bytes >= p.memLimit && len(p.mem.data) > 0 {
		if p.imm != nil {
			p.stats.stallWaits.Add(1)
			p.flushCond.Wait()
			continue
		}
		p.imm = p.mem
		p.mem = newMemtable()
		select {
		case p.flushC <- struct{}{}:
		default:
		}
	}
}

func (p *Persist) flusher() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case <-p.flushC:
			p.doFlush()
		}
	}
}

// doFlush writes the immutable memtable out as a level-0 table, has the
// owner make its front log durable, then installs the table in a fresh
// version and persists the manifest (invariant 1).
func (p *Persist) doFlush() {
	p.mu.Lock()
	imm := p.imm
	if imm == nil || p.err != nil {
		p.flushCond.Broadcast()
		p.mu.Unlock()
		return
	}
	fileNo := p.nextFile
	p.nextFile++
	p.mu.Unlock()

	entries := imm.sortedPrefix("")
	w, err := newSSTWriter(p.dir, fileNo)
	var t *table
	if err == nil {
		for i := range entries {
			if err = w.add(entries[i]); err != nil {
				w.abort()
				break
			}
		}
		if err == nil {
			if err = w.finish(); err == nil {
				t, err = openTable(p.dir, fileNo)
			}
		}
	}
	if err == nil && p.syncFront != nil {
		p.stats.frontSyncs.Add(1)
		if err = p.syncFront(); err != nil {
			_ = t.f.Close() // an orphan: the next open deletes it
			err = fmt.Errorf("storage: persist %s: front-log sync: %w", p.dir, err)
		}
	}
	if err != nil {
		// The imm stays readable in memory and the front log stays the
		// truth: no data is lost in-process, the engine just stops
		// flushing and the error surfaces at Close.
		p.setErr(err)
		p.mu.Lock()
		p.flushCond.Broadcast()
		p.mu.Unlock()
		return
	}

	p.manifestMu.Lock()
	p.mu.Lock()
	newLevels := cloneLevels(p.version.levels)
	if len(newLevels) == 0 {
		newLevels = append(newLevels, nil)
	}
	newLevels[0] = append([]*table{t}, newLevels[0]...)
	newV := newVersion(newLevels)
	data := manifestData{nextFile: p.nextFile, levels: newV.fileNos()}
	old := p.version
	p.version = newV
	p.imm = nil
	p.flushCond.Broadcast()
	needCompact := len(newLevels[0]) >= p.fanout
	p.mu.Unlock()
	// Manifest disk I/O happens under manifestMu only, so readers and
	// writers on p.mu never stall behind the fsync+rename.
	if err := writeManifest(p.dir, data); err != nil {
		p.setErr(err)
	}
	p.manifestMu.Unlock()
	old.release()
	p.stats.flushes.Add(1)
	p.stats.flushedBytes.Add(t.size)
	if needCompact {
		select {
		case p.compactC <- struct{}{}:
		default:
		}
	}
}

func (p *Persist) compactor() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case <-p.compactC:
			for p.compactOnce() {
			}
		}
	}
}

// compactOnce merges the shallowest over-fanout level into one run on
// the next level, returning whether it did any work. Tombstones are
// dropped only when no deeper level holds tables (the shadowed versions
// are then inside this very merge, so both sides vanish together).
func (p *Persist) compactOnce() bool {
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	p.mu.RLock()
	if p.err != nil {
		p.mu.RUnlock()
		return false
	}
	v := p.version
	level := -1
	for i, lvl := range v.levels {
		if len(lvl) >= p.fanout {
			level = i
			break
		}
	}
	if level < 0 {
		p.mu.RUnlock()
		return false
	}
	inputs := append([]*table(nil), v.levels[level]...)
	dropTombs := true
	for j := level + 1; j < len(v.levels); j++ {
		if len(v.levels[j]) > 0 {
			dropTombs = false
			break
		}
	}
	for _, t := range inputs {
		t.ref() // pin across the merge, beyond this version's lifetime
	}
	p.mu.RUnlock()
	unpin := func() {
		for _, t := range inputs {
			t.unref()
		}
	}

	p.mu.Lock()
	fileNo := p.nextFile
	p.nextFile++
	p.mu.Unlock()

	w, err := newSSTWriter(p.dir, fileNo)
	if err != nil {
		unpin()
		p.setErr(err)
		return false
	}
	sources := make([]lsmSource, len(inputs))
	for i, t := range inputs {
		sources[i] = newTableIter(t, "", "")
	}
	added := 0
	var addErr error
	merr := mergeSources(sources, !dropTombs, func(e lsmEntry) bool {
		if addErr = w.add(e); addErr != nil {
			return false
		}
		added++
		return true
	})
	if merr == nil {
		merr = addErr
	}
	if merr != nil {
		w.abort()
		unpin()
		p.setErr(fmt.Errorf("storage: persist compaction: %w", merr))
		return false
	}
	var out *table
	if added == 0 {
		w.abort() // everything annihilated; no output table
	} else {
		if err := w.finish(); err != nil {
			unpin()
			p.setErr(err)
			return false
		}
		if out, err = openTable(p.dir, fileNo); err != nil {
			unpin()
			p.setErr(err)
			return false
		}
	}

	p.manifestMu.Lock()
	p.mu.Lock()
	if p.err != nil {
		// No manifest after a sticky error (invariant 1).
		p.mu.Unlock()
		p.manifestMu.Unlock()
		unpin()
		if out != nil {
			_ = out.f.Close()
			_ = os.Remove(out.path)
		}
		return false
	}
	drop := make(map[*table]bool, len(inputs))
	for _, t := range inputs {
		drop[t] = true
	}
	newLevels := cloneLevels(p.version.levels)
	kept := newLevels[level][:0]
	for _, t := range newLevels[level] {
		if !drop[t] {
			kept = append(kept, t)
		}
	}
	newLevels[level] = kept
	for len(newLevels) <= level+1 {
		newLevels = append(newLevels, nil)
	}
	if out != nil {
		// The merged run is newer than everything already on level+1.
		newLevels[level+1] = append([]*table{out}, newLevels[level+1]...)
	}
	newV := newVersion(newLevels)
	data := manifestData{nextFile: p.nextFile, levels: newV.fileNos()}
	old := p.version
	p.version = newV
	p.mu.Unlock()
	merr = writeManifest(p.dir, data)
	if merr == nil {
		// Only a durable manifest may doom the inputs' files; otherwise
		// the old manifest still names them for recovery.
		for _, t := range inputs {
			t.dead.Store(true)
		}
	} else {
		p.setErr(merr)
	}
	p.manifestMu.Unlock()
	old.release()
	unpin()
	p.stats.compactions.Add(1)
	if out != nil {
		p.stats.compactedBytes.Add(out.size)
	}
	return merr == nil
}

// lsmSource is one ascending stream in a k-way merge. Sources are
// ordered newest-first; mergeSources resolves ties by source index.
type lsmSource interface {
	valid() bool
	entry() lsmEntry
	next()
	srcErr() error
}

func (it *tableIter) srcErr() error { return it.err }

// sliceSource adapts a sorted []lsmEntry (a memtable dump).
type sliceSource struct {
	entries []lsmEntry
	pos     int
}

func (s *sliceSource) valid() bool     { return s.pos < len(s.entries) }
func (s *sliceSource) entry() lsmEntry { return s.entries[s.pos] }
func (s *sliceSource) next()           { s.pos++ }
func (s *sliceSource) srcErr() error   { return nil }

// mergeSources emits the newest version of each key in ascending key
// order. Tombstones are emitted only when keepTombs (compactions that
// are not the deepest level must keep them to shadow older runs); emit
// returning false stops the merge.
func mergeSources(sources []lsmSource, keepTombs bool, emit func(lsmEntry) bool) error {
	for {
		best := -1
		for i, s := range sources {
			if err := s.srcErr(); err != nil {
				return err
			}
			if !s.valid() {
				continue
			}
			if best < 0 || s.entry().key < sources[best].entry().key {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		win := sources[best].entry()
		for i := best; i < len(sources); i++ {
			s := sources[i]
			if s.valid() && s.entry().key == win.key {
				s.next()
				if err := s.srcErr(); err != nil {
					return err
				}
			}
		}
		if win.tomb && !keepTombs {
			continue
		}
		if !emit(win) {
			return nil
		}
	}
}

// Get implements KV: memtables first, then a pinned version searched
// newest-to-oldest, lock-free.
func (p *Persist) Get(key string) ([]byte, bool) {
	p.mu.RLock()
	if e, ok := p.mem.get(key); ok {
		p.mu.RUnlock()
		if e.tomb {
			return nil, false
		}
		return e.value, true
	}
	if p.imm != nil {
		if e, ok := p.imm.get(key); ok {
			p.mu.RUnlock()
			if e.tomb {
				return nil, false
			}
			return e.value, true
		}
	}
	v := p.version
	v.acquire()
	p.mu.RUnlock()
	val, tomb, found, err := searchVersion(v, key, &p.stats)
	v.release()
	if err != nil {
		p.corrupt(err)
	}
	if !found || tomb {
		return nil, false
	}
	return val, true
}

// ErrClosed is what Close returns once a write has reached a closed
// engine.
var ErrClosed = errors.New("storage: persist engine is closed")

// ApplyBatch implements KV: every write put blindly into the memtable. A
// write that arrives once Close has begun is dropped, and — the KV
// contract gives writes no error return — Close reports ErrClosed.
func (p *Persist) ApplyBatch(writes []Write) {
	if len(writes) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.dropped = true
		return
	}
	for i := range writes {
		p.mem.set(writes[i].Key, writes[i].Value, writes[i].Delete)
	}
	p.maybeFlushLocked()
}

// IterPrefix implements KV: a k-way merge over point-in-time copies of
// the memtables and a pinned version — concurrent flushes, compactions
// and writes never change what an in-flight iteration sees — with fn
// running lock-free, so it may re-enter the KV.
func (p *Persist) IterPrefix(prefix string, fn func(key string, value []byte) bool) {
	p.mu.RLock()
	memEntries := p.mem.sortedPrefix(prefix)
	var immEntries []lsmEntry
	if p.imm != nil {
		immEntries = p.imm.sortedPrefix(prefix)
	}
	v := p.version
	v.acquire()
	p.mu.RUnlock()
	defer v.release()
	sources := []lsmSource{
		&sliceSource{entries: memEntries},
		&sliceSource{entries: immEntries},
	}
	for _, lvl := range v.levels {
		for _, t := range lvl {
			if t.nblocks == 0 || t.maxKey < prefix {
				continue
			}
			sources = append(sources, newTableIter(t, prefix, prefix))
		}
	}
	err := mergeSources(sources, false, func(e lsmEntry) bool {
		return fn(e.key, e.value)
	})
	if err != nil {
		p.corrupt(err)
	}
}

// Close implements KV. A clean stop is a checkpoint: Close refuses new
// writes, waits for a flush in flight, stops the workers, then seals a
// non-empty memtable and runs it through doFlush — table fsynced, front
// log synced, manifest durable — and through any compaction that flush
// makes due. The next open finds the front log's end in the tables, and
// its owner replays nothing. An empty memtable writes nothing. A sticky
// error skips the checkpoint: the front log stays the truth, exactly as
// after kill -9, and Close reports the error. A write that races Close is
// either in the checkpoint or refused.
//
// Then the engine lets go of everything it held in memory — both
// memtables, the table set with its indexes and bloom filters — so a
// closed engine something still points at costs a struct, not a
// memtable. A closed engine reads as empty (a fresh memtable over an
// empty version, so no reader meets a nil). Idempotent; a concurrent
// second Close waits for the first. The owner closes its front log after
// the engine: the checkpoint syncs it.
func (p *Persist) Close() error {
	p.closeOnce.Do(p.shutdown)
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.err == nil && p.dropped {
		return ErrClosed
	}
	return p.err
}

func (p *Persist) shutdown() {
	p.mu.Lock()
	p.closed = true
	for p.imm != nil && p.err == nil {
		p.flushCond.Wait()
	}
	if p.err == nil && len(p.mem.data) > 0 {
		p.imm, p.mem = p.mem, newMemtable()
	}
	p.flushCond.Broadcast()
	p.mu.Unlock()
	close(p.quit)
	p.wg.Wait()
	// The workers are stopped; the checkpoint runs alone.
	p.doFlush()
	for p.compactOnce() {
	}
	p.mu.Lock()
	v := p.version
	p.version = newVersion(nil)
	p.mem, p.imm = newMemtable(), nil
	p.mu.Unlock()
	v.release()
}

// Stats snapshots the engine's shape and counters.
func (p *Persist) Stats() PersistStats {
	st := PersistStats{Durability: p.durability}
	p.mu.RLock()
	if p.version != nil {
		for i, lvl := range p.version.levels {
			st.SSTables += len(lvl)
			if len(lvl) > 0 {
				st.Levels = i + 1
			}
			if len(lvl) >= p.fanout {
				st.CompactionBacklog++
			}
			for _, t := range lvl {
				st.IndexBytes += t.indexBytes() + int64(len(t.filter.bits))
			}
		}
	}
	if p.mem != nil {
		st.MemtableBytes = p.mem.bytes
	}
	if p.imm != nil {
		st.MemtableBytes += p.imm.bytes
	}
	p.mu.RUnlock()
	st.Flushes = p.stats.flushes.Load()
	st.FlushedBytes = p.stats.flushedBytes.Load()
	st.Compactions = p.stats.compactions.Load()
	st.CompactedBytes = p.stats.compactedBytes.Load()
	st.StallWaits = p.stats.stallWaits.Load()
	st.BloomChecks = p.stats.bloomChecks.Load()
	st.BloomSkips = p.stats.bloomSkips.Load()
	st.BlockReads = p.stats.blockReads.Load()
	st.WALFsyncs = p.stats.frontSyncs.Load()
	return st
}

// Register exposes the engine's gauges and counters on a metrics
// registry (typically pre-scoped with peer/store labels — see
// Registry.With). Safe on a nil registry.
func (p *Persist) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("storage_sstables", "Live SSTables in the LSM persist engine.",
		func() float64 { return float64(p.Stats().SSTables) })
	reg.GaugeFunc("storage_lsm_levels", "Occupied LSM levels.",
		func() float64 { return float64(p.Stats().Levels) })
	reg.GaugeFunc("storage_memtable_bytes", "Bytes buffered in the active+flushing memtables.",
		func() float64 { return float64(p.Stats().MemtableBytes) })
	reg.GaugeFunc("storage_compaction_backlog", "Levels at or over the compaction fanout.",
		func() float64 { return float64(p.Stats().CompactionBacklog) })
	reg.CounterFunc("storage_flush_total", "Memtable flushes into SSTables.",
		p.stats.flushes.Load)
	reg.CounterFunc("storage_compaction_total", "Background compaction merges.",
		p.stats.compactions.Load)
	reg.CounterFunc("storage_compaction_bytes_total", "Bytes rewritten by compaction.",
		p.stats.compactedBytes.Load)
	reg.CounterFunc("storage_stall_waits_total", "Writer stalls waiting for a flush slot.",
		p.stats.stallWaits.Load)
	reg.CounterFunc("storage_bloom_checks_total", "Bloom filter probes on table lookups.",
		p.stats.bloomChecks.Load)
	reg.CounterFunc("storage_bloom_skips_total", "Table lookups answered negative by the bloom filter without a disk read.",
		p.stats.bloomSkips.Load)
	reg.CounterFunc("storage_block_reads_total", "SSTable data block reads.",
		p.stats.blockReads.Load)
	reg.CounterFunc("storage_wal_fsync_total", "Front-log fsyncs the engine's flushes asked its owner for: the engine keeps no log of its own.",
		p.stats.frontSyncs.Load)
}
