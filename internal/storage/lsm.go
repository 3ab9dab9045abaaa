package storage

// The persist engine is an LSM tree — the structure beneath the
// world-state database of the paper's Fabric deployment (LevelDB), built
// here from the repo's own primitives. Writes land in a WAL-fronted
// sorted memtable; full memtables flush into immutable SSTables (see
// sstable.go); a crash-safe manifest (manifest.go) names the live tables;
// a background compactor merges runs level by level, dropping shadowed
// versions and tombstones. RAM holds one memtable and reopen replays only
// the WAL tail over the manifest — nothing after a clean stop (Close
// checkpoints), O(unflushed writes) after a crash, never O(total state).
//
// On-disk layout inside Config.Dir:
//
//	MANIFEST        root pointer: live tables per level, lowest live WAL,
//	                next file number (atomic rewrite)
//	wal-<n>.log     write-ahead log, one file per memtable generation
//	sst-<n>.sst     immutable sorted runs (see sstable.go)
//	*.tmp           in-progress manifest writes (cleaned on open)
//
// WAL files are numbered contiguously (1, 2, 3, ...) so recovery can
// detect a lost file in the replay range; SSTables draw from a separate
// monotonic counter persisted in the manifest. One ApplyBatch is one WAL
// record, framed by internal/walframe ([4B length][4B CRC32][payload]);
// the payload is a uvarint write-count, then per write an op byte (0 put,
// 1 delete), uvarint key length, key bytes and, for puts, uvarint value
// length plus value bytes. Open replays each WAL through
// walframe.Recover, the scan every log shares: a torn tail on the last
// WAL is truncated; any other damage refuses the open.
//
// Writes are blind, as in LevelDB: ApplyBatch and WAL replay put each
// entry straight into the memtable without reading what lies beneath it,
// so a write never waits on a table read and never holds the engine lock
// across one. A delete always writes a tombstone, and the compaction that
// merges into the bottom level drops it.
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
//  1. A record is in the WAL before it is applied to the memtable.
//  2. A flushed/compacted table is fsynced before the manifest names it.
//  3. The manifest rename is atomic (tmp + fsync + rename + dir fsync).
//  4. WAL files and replaced tables are deleted only AFTER the manifest
//     that obsoletes them is durable. Orphans (tables the manifest does
//     not name, WALs below walMin) are deleted at open.
//  5. Only a flush advances the manifest's walMin (to the WAL left
//     active by its memtable's seal). Compaction re-writes the walMin of
//     the last durable flush/recovery: a sealed WAL whose flush is still
//     in flight is the only durable copy of those records, and a higher
//     walMin would let recovery delete it.
//  6. Close is a checkpoint, and a checkpoint is a flush: Close seals the
//     active memtable and runs it through doFlush (and the compaction
//     that flush makes due), so it obeys 2-5 at every step, and marks the
//     engine closed only afterwards. A crash anywhere inside Close is a
//     crash inside a flush: recovery lands on the state Close started
//     from.
//
// After a clean stop the directory holds the manifest, the tables it
// names and one empty WAL; the next open replays nothing, so what a
// restart costs — time, heap, bytes read — is O(manifest) and does not
// depend on how full the memtable was. After kill -9 it holds whatever
// WALs the last durable manifest did not cover, and open replays them:
// PersistStats.OpenWALRecords tells the two apart. There is no switch to
// turn the checkpoint off: the only engine that skips it is one with a
// sticky I/O error, which cannot vouch for a table it would write and
// leaves the WAL as the truth.
//
// Durability modes (Config.Durability): "none" acknowledges at the page
// cache (kill -9 safe; power loss can lose the tail since the last
// flush). "batch" adds a background group fsync every batchFsyncPeriod —
// writers never wait, loss window is one interval. "always" makes every
// mutation wait for an fsync covering it; concurrent waiters coalesce
// onto one fsync (group commit), so the cost amortises under load.
//
// Integrity: every byte read back — WAL, manifest, table blocks — is CRC
// validated. On the read path a failed check panics rather than serving
// a possibly-wrong value; at open it is a refusal to start.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"socialchain/internal/codec"
	"socialchain/internal/obs"
	"socialchain/internal/walframe"
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
	// batchFsyncPeriod is DurabilityBatch's group-commit period.
	batchFsyncPeriod = 5 * time.Millisecond

	walPrefix = "wal-"
	walSuffix = ".log"
	// An older build's mapwal engine cut snapshots named snap-<idx>.db
	// beside its WAL; the persist engine refuses such a directory.
	snapPrefix = "snap-"
	snapSuffix = ".db"

	opPut    = 0
	opDelete = 1
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
	fsyncs         atomic.Int64
}

// PersistStats is a point-in-time snapshot of the engine's shape and
// counters, surfaced through Stats()/Register and the node /statusz.
type PersistStats struct {
	SSTables          int        `json:"sstables"`
	Levels            int        `json:"levels"`
	MemtableBytes     int64      `json:"memtable_bytes"`
	WALBytes          int64      `json:"wal_bytes"`
	OpenWALRecords    int64      `json:"open_wal_records_replayed"`
	OpenWALBytes      int64      `json:"open_wal_bytes_replayed"`
	CompactionBacklog int        `json:"compaction_backlog"`
	Flushes           int64      `json:"flushes"`
	FlushedBytes      int64      `json:"flushed_bytes"`
	Compactions       int64      `json:"compactions"`
	CompactedBytes    int64      `json:"compacted_bytes"`
	StallWaits        int64      `json:"stall_waits"`
	BloomChecks       int64      `json:"bloom_checks"`
	BloomSkips        int64      `json:"bloom_skips"`
	BlockReads        int64      `json:"block_reads"`
	WALFsyncs         int64      `json:"wal_fsyncs"`
	Durability        Durability `json:"durability"`
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
	wal       *os.File
	walIdx    uint64 // active WAL index; WAL numbering is contiguous
	walBytes  int64
	nextFile  uint64 // next SSTable file number (persisted in the manifest)
	err       error  // sticky I/O error, reported by Sync/Close
	closed    bool
	closeOnce sync.Once
	flushCond *sync.Cond // signalled when imm drains (or on error/close)

	// manifestWALMin is the walMin recorded by the last durable manifest
	// (set in recover and advanced only by doFlush). Compaction writes
	// THIS value, never the live walIdx: while a flush is in flight the
	// sealed WAL is the only durable copy of the imm's records, and a
	// compaction manifest naming a higher walMin would doom it. Guarded
	// by p.mu.
	manifestWALMin uint64

	// manifestMu serializes manifest writes so they happen outside p.mu
	// (readers never stall on manifest disk I/O) while each manifest
	// still reflects every previously written one. Lock order:
	// manifestMu before p.mu, never reversed.
	manifestMu sync.Mutex

	// compactMu admits one compactOnce at a time: Close runs the compaction
	// its checkpoint flush made due beside the compactor goroutine.
	compactMu sync.Mutex

	// openRecords and openBytes are the WAL records and bytes recover
	// replayed; written before the workers start, constant afterwards.
	openRecords, openBytes int64

	dir        string
	memLimit   int64
	fanout     int
	durability Durability

	flushC   chan struct{}
	compactC chan struct{}
	quit     chan struct{}
	wg       sync.WaitGroup

	// commit is the group-commit state: appended counts WAL records
	// written, synced the highest record known fsynced. Writers bump
	// appended (nested inside mu); the syncer goroutine fsyncs and
	// advances synced; DurabilityAlways writers wait for synced to cover
	// their record. Rotation fsyncs the sealed file and jumps synced
	// forward itself. Lock order: p.mu before commit.mu, never reversed.
	commit struct {
		mu               sync.Mutex
		cond             *sync.Cond
		appended, synced uint64
		file             *os.File
		gen              uint64
		closed           bool
		// err is a sticky fsync failure. synced never advances past the
		// failed records, so DurabilityAlways waiters observe the error
		// instead of a false durability acknowledgement (see waitDurable).
		err error
	}

	stats lsmStats
}

// OpenPersist opens (or creates) an LSM persist engine in cfg.Dir,
// replaying the WAL tail over the manifest. An empty Dir materialises a
// fresh temporary directory (see Config.Dir).
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
		flushC:     make(chan struct{}, 1),
		compactC:   make(chan struct{}, 1),
		quit:       make(chan struct{}),
	}
	p.flushCond = sync.NewCond(&p.mu)
	p.commit.cond = sync.NewCond(&p.commit.mu)
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
	if p.durability != DurabilityNone {
		p.wg.Add(1)
		go p.syncer()
	}
	// A small memLimit can leave the replayed memtable already over
	// threshold; flush it now rather than on the first write.
	p.mu.Lock()
	p.maybeFlushLocked()
	p.mu.Unlock()
	return p, nil
}

// Dir returns the engine's data directory.
func (p *Persist) Dir() string { return p.dir }

func (p *Persist) walPath(idx uint64) string {
	return filepath.Join(p.dir, fmt.Sprintf("%s%016x%s", walPrefix, idx, walSuffix))
}

// scanDir inventories the data directory: WAL indices (sorted), table
// file numbers, whether an older build's mapwal snapshots are present;
// temp files are deleted.
func (p *Persist) scanDir() (wals []uint64, ssts map[uint64]bool, hasSnaps bool, err error) {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, nil, false, fmt.Errorf("storage: persist scan %s: %w", p.dir, err)
	}
	ssts = make(map[uint64]bool)
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			_ = os.Remove(filepath.Join(p.dir, name))
		case strings.HasPrefix(name, walPrefix) && strings.HasSuffix(name, walSuffix):
			if idx, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix), 16, 64); perr == nil {
				wals = append(wals, idx)
			}
		case strings.HasPrefix(name, sstPrefix) && strings.HasSuffix(name, sstSuffix):
			if no, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, sstPrefix), sstSuffix), 16, 64); perr == nil {
				ssts[no] = true
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			hasSnaps = true
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return wals, ssts, hasSnaps, nil
}

// recover loads the manifest, opens the live tables, deletes orphans of
// interrupted flushes/compactions, and replays the WAL tail into the
// memtable. Reopen cost is O(tables + WAL tail), not O(total state).
func (p *Persist) recover() error {
	// The manifest is read before scanDir deletes anything, so a refused
	// manifest leaves the directory as it found it.
	m, haveManifest, err := readManifest(p.dir)
	if err != nil {
		return err
	}
	wals, ssts, hasSnaps, err := p.scanDir()
	if err != nil {
		return err
	}
	var levels [][]*table
	if !haveManifest {
		if hasSnaps {
			return fmt.Errorf("storage: persist %s holds %s* snapshots written by an older build's mapwal engine; no migration",
				p.dir, snapPrefix)
		}
		// Fresh directory, or one holding only WALs: every sst file is an
		// orphan; replay all WALs below.
		for no := range ssts {
			_ = os.Remove(sstPath(p.dir, no))
		}
		m = manifestData{nextFile: 1, walMin: 1}
		if len(wals) > 0 {
			m.walMin = wals[0]
		}
	} else {
		referenced := make(map[uint64]bool)
		levels = make([][]*table, len(m.levels))
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
	}
	p.nextFile = m.nextFile
	if p.nextFile == 0 {
		p.nextFile = 1
	}
	p.manifestWALMin = m.walMin
	p.version = newVersion(levels)

	// WAL tail: files below walMin are covered by tables (stale leftovers
	// of a crash between manifest write and deletion); files at/after it
	// replay in order, contiguously, torn tail permitted only on the last.
	live := wals[:0]
	for _, idx := range wals {
		if idx < m.walMin {
			_ = os.Remove(p.walPath(idx))
			continue
		}
		live = append(live, idx)
	}
	if len(live) > 0 && live[0] != m.walMin {
		return fmt.Errorf("storage: persist %s: wal file %x missing (first live is %x): committed writes lost",
			p.dir, m.walMin, live[0])
	}
	if haveManifest && len(live) == 0 {
		return fmt.Errorf("storage: persist %s: wal file %x named by manifest is missing", p.dir, m.walMin)
	}
	for i, idx := range live {
		if i > 0 && idx != live[i-1]+1 {
			return fmt.Errorf("storage: persist %s: wal gap between %x and %x", p.dir, live[i-1], idx)
		}
		if err := p.replayWAL(idx, i == len(live)-1); err != nil {
			return err
		}
	}
	p.walIdx = m.walMin
	if len(live) > 0 {
		p.walIdx = live[len(live)-1]
	}
	f, err := os.OpenFile(p.walPath(p.walIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: persist open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: persist stat wal: %w", err)
	}
	p.wal, p.walBytes = f, st.Size()
	p.commit.file = f
	return nil
}

// replayWAL applies wal-<idx> to the memtable, streaming its records
// through walframe.Recover. A torn tail is truncated on the last file and
// fatal on any other; mid-log corruption is fatal on every file.
func (p *Persist) replayWAL(idx uint64, last bool) error {
	path := p.walPath(idx)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("storage: persist wal: %w", err)
	}
	defer f.Close()
	end, err := walframe.Recover(f, 0, last, func(_ int64, rec []byte) error {
		p.openRecords++
		return decodeRecord(rec, p.mem.set)
	})
	p.openBytes += end
	if err != nil {
		return fmt.Errorf("storage: persist wal %s: %w", path, err)
	}
	return nil
}

// decodeRecord walks one WAL record's writes, invoking apply per write
// (value bytes are copied out of rec).
func decodeRecord(rec []byte, apply func(key string, val []byte, del bool)) error {
	count, n := binary.Uvarint(rec)
	if n <= 0 {
		return fmt.Errorf("bad record: write count")
	}
	rec = rec[n:]
	for i := uint64(0); i < count; i++ {
		if len(rec) == 0 {
			return fmt.Errorf("bad record: short write %d", i)
		}
		op := rec[0]
		rec = rec[1:]
		klen, n := binary.Uvarint(rec)
		if n <= 0 || uint64(len(rec)-n) < klen {
			return fmt.Errorf("bad record: key length")
		}
		key := string(rec[n : n+int(klen)])
		rec = rec[n+int(klen):]
		switch op {
		case opDelete:
			apply(key, nil, true)
		case opPut:
			vlen, n := binary.Uvarint(rec)
			if n <= 0 || uint64(len(rec)-n) < vlen {
				return fmt.Errorf("bad record: value length")
			}
			val := make([]byte, vlen)
			copy(val, rec[n:n+int(vlen)])
			rec = rec[n+int(vlen):]
			apply(key, val, false)
		default:
			return fmt.Errorf("bad record: op %d", op)
		}
	}
	if len(rec) != 0 {
		return fmt.Errorf("bad record: %d trailing bytes", len(rec))
	}
	return nil
}

// appendRecordFrame appends one framed WAL record holding writes to buf
// and returns the extended slice.
func appendRecordFrame(buf []byte, writes []Write) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, walframe.HeaderLen)...) // header placeholder
	buf = binary.AppendUvarint(buf, uint64(len(writes)))
	for i := range writes {
		w := &writes[i]
		if w.Delete {
			buf = append(buf, opDelete)
			buf = binary.AppendUvarint(buf, uint64(len(w.Key)))
			buf = append(buf, w.Key...)
			continue
		}
		buf = append(buf, opPut)
		buf = binary.AppendUvarint(buf, uint64(len(w.Key)))
		buf = append(buf, w.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(w.Value)))
		buf = append(buf, w.Value...)
	}
	walframe.Seal(buf[start:])
	return buf
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

// appendLocked writes one framed WAL record and returns its group-commit
// sequence (0 when no fsync pipeline runs). Caller holds p.mu. I/O
// errors are sticky: in-memory state stays authoritative for the life of
// the process and Sync/Close report the failure. The frame is built in a
// shared scratch buffer, so the engine holds no copy of its largest batch.
func (p *Persist) appendLocked(writes []Write) uint64 {
	if p.err != nil || p.wal == nil {
		return 0
	}
	codec.Scratch(func(frame []byte) []byte {
		frame = appendRecordFrame(frame, writes)
		if _, err := p.wal.Write(frame); err != nil {
			p.err = fmt.Errorf("storage: persist wal append: %w", err)
		} else {
			p.walBytes += int64(len(frame))
		}
		return frame
	})
	if p.err != nil {
		return 0
	}
	if p.durability == DurabilityNone {
		return 0
	}
	c := &p.commit
	c.mu.Lock()
	c.appended++
	seq := c.appended
	c.cond.Broadcast()
	c.mu.Unlock()
	return seq
}

// waitDurable blocks a DurabilityAlways writer until the syncer's fsync
// covers its record. Called WITHOUT p.mu held, so appends from other
// writers proceed during the fsync — that overlap is the group commit.
//
// On an fsync failure the wait ends with commit.err set and synced
// still behind the record; DurabilityAlways promises no loss window for
// acknowledged writes, and with no error return in the KV contract a
// write that cannot be made durable must not return at all — so this
// panics, mirroring corrupt().
func (p *Persist) waitDurable(seq uint64) {
	if seq == 0 || p.durability != DurabilityAlways {
		return
	}
	c := &p.commit
	c.mu.Lock()
	for c.synced < seq && c.err == nil && !c.closed {
		c.cond.Wait()
	}
	err, synced := c.err, c.synced
	c.mu.Unlock()
	if err != nil && synced < seq {
		panic(fmt.Sprintf("storage: persist %s: wal fsync failed under Durability=always: %v (refusing to acknowledge a non-durable write)", p.dir, err))
	}
}

// syncer is the group-commit loop: whenever records are appended past
// the synced mark it fsyncs the WAL once for all of them (after a short
// coalescing sleep in batch mode) and releases every waiter.
func (p *Persist) syncer() {
	defer p.wg.Done()
	c := &p.commit
	for {
		c.mu.Lock()
		for c.appended == c.synced && !c.closed && c.err == nil {
			c.cond.Wait()
		}
		if c.closed || c.err != nil {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		if p.durability == DurabilityBatch {
			time.Sleep(batchFsyncPeriod)
		}
		c.mu.Lock()
		target, f, gen := c.appended, c.file, c.gen
		c.mu.Unlock()
		var err error
		if f != nil {
			err = f.Sync()
			p.stats.fsyncs.Add(1)
		}
		c.mu.Lock()
		stale := gen != c.gen // rotation sealed+fsynced that file itself
		if err == nil || stale {
			if c.synced < target {
				c.synced = target
			}
		} else if c.err == nil {
			// synced stays behind the failed records; waiters are woken to
			// observe the error, never released as success.
			c.err = err
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		if err != nil && !stale {
			p.setErr(fmt.Errorf("storage: persist wal fsync: %w", err))
		}
	}
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
		p.rotateWALLocked()
		select {
		case p.flushC <- struct{}{}:
		default:
		}
	}
}

// rotateWALLocked seals the active WAL (fsync — it must be durable
// before the flush that subsumes it can delete it) and starts wal-<next>.
// Caller holds p.mu.
func (p *Persist) rotateWALLocked() {
	if p.err != nil || p.wal == nil {
		return
	}
	idx := p.walIdx + 1
	newF, err := os.OpenFile(p.walPath(idx), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		p.err = fmt.Errorf("storage: persist wal rotate: %w", err)
		return
	}
	old := p.wal
	serr := old.Sync()
	if serr != nil {
		p.err = fmt.Errorf("storage: persist wal seal sync: %w", serr)
	}
	p.stats.fsyncs.Add(1)
	c := &p.commit
	c.mu.Lock()
	c.gen++
	if serr == nil {
		c.synced = c.appended // sealed file covers everything appended so far
	} else if c.err == nil {
		// The sealed file may not be durable: synced must not jump over
		// its records, or DurabilityAlways waiters would be released as
		// success for writes that can still be lost. They observe the
		// error instead (see waitDurable).
		c.err = serr
	}
	c.file = newF
	c.cond.Broadcast()
	c.mu.Unlock()
	_ = old.Close()
	p.wal = newF
	p.walIdx = idx
	p.walBytes = 0
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

// doFlush writes the immutable memtable out as a level-0 table, installs
// it in a fresh version, persists the manifest, and deletes the WAL
// files the table now covers.
func (p *Persist) doFlush() {
	p.mu.Lock()
	imm := p.imm
	if imm == nil || p.err != nil || p.closed {
		p.flushCond.Broadcast()
		p.mu.Unlock()
		return
	}
	fileNo := p.nextFile
	p.nextFile++
	walMin := p.walIdx // active WAL; everything older is inside imm
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
	if err != nil {
		// The imm stays readable in memory and its WAL stays on disk: no
		// data is lost in-process, the engine just stops flushing and the
		// error surfaces at Sync/Close.
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
	data := manifestData{
		nextFile: p.nextFile,
		walMin:   walMin,
		levels:   newV.fileNos(),
	}
	old := p.version
	p.version = newV
	p.imm = nil
	p.flushCond.Broadcast()
	needCompact := len(newLevels[0]) >= p.fanout
	p.mu.Unlock()
	// Manifest disk I/O happens under manifestMu only, so readers and
	// writers on p.mu never stall behind the fsync+rename.
	merr := writeManifest(p.dir, data)
	if merr == nil {
		p.mu.Lock()
		p.manifestWALMin = walMin
		p.mu.Unlock()
	} else {
		p.setErr(merr)
	}
	p.manifestMu.Unlock()
	old.release()
	p.stats.flushes.Add(1)
	p.stats.flushedBytes.Add(t.size)
	// Without a durable manifest the old WALs are still the truth.
	if merr == nil {
		p.removeWALsBelow(walMin)
	}
	if needCompact {
		select {
		case p.compactC <- struct{}{}:
		default:
		}
	}
}

// removeWALsBelow deletes wal files with index < min (subsumed by a
// durable flush).
func (p *Persist) removeWALsBelow(min uint64) {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		idx, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix), 16, 64)
		if perr == nil && idx < min {
			_ = os.Remove(filepath.Join(p.dir, name))
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
	if p.closed || p.err != nil {
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
	if p.closed {
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
	data := manifestData{
		nextFile: p.nextFile,
		// Compaction rewrites tables only — it must not advance walMin.
		// A sealed WAL whose flush is still in flight (p.imm != nil) is
		// the only durable copy of those records; naming the live walIdx
		// here would let recovery delete it and lose acknowledged writes.
		walMin: p.manifestWALMin,
		levels: newV.fileNos(),
	}
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

// ErrClosed is what Sync and Close return once a call has reached a
// closed engine.
var ErrClosed = errors.New("storage: persist engine is closed")

// refuseClosedLocked reports whether the engine is closed. A write that
// arrives then is dropped, and — the KV contract gives writes no error
// return — ErrClosed becomes the sticky error Sync and Close report, the
// way a failed WAL append does. Caller holds p.mu.
func (p *Persist) refuseClosedLocked() bool {
	if p.closed && p.err == nil {
		p.err = ErrClosed
	}
	return p.closed
}

// ApplyBatch implements KV: one atomic WAL record, then every write put
// blindly into the memtable.
func (p *Persist) ApplyBatch(writes []Write) {
	if len(writes) == 0 {
		return
	}
	p.mu.Lock()
	if p.refuseClosedLocked() {
		p.mu.Unlock()
		return
	}
	seq := p.appendLocked(writes)
	for i := range writes {
		p.mem.set(writes[i].Key, writes[i].Value, writes[i].Delete)
	}
	p.maybeFlushLocked()
	p.mu.Unlock()
	p.waitDurable(seq)
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

// Sync implements KV: flush the active WAL to stable storage.
func (p *Persist) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.refuseClosedLocked() || p.err != nil {
		return p.err
	}
	if p.wal == nil {
		return nil
	}
	if err := p.wal.Sync(); err != nil {
		p.err = fmt.Errorf("storage: persist sync: %w", err)
	}
	return p.err
}

// Close implements KV. A clean stop is a checkpoint: Close waits for a
// flush in flight, then seals a non-empty memtable and runs it through
// doFlush — table fsynced, manifest durable, covered WALs removed — and
// through any compaction that flush makes due, BEFORE the engine is marked
// closed. What is left on disk is the tables plus the one empty WAL the
// manifest names, and the next open replays nothing. An empty memtable
// writes nothing. A sticky error skips the checkpoint: the WAL stays the
// truth, exactly as after kill -9, and Close reports the error. A write
// that races Close is either refused or acknowledged into the new WAL,
// which the next open replays.
//
// Then the workers stop, the WAL is sealed and the engine lets go of
// everything it held in memory — both memtables, the table set with its
// indexes and bloom filters, the append buffer — so a closed engine
// something still points at costs a struct, not a memtable. A closed
// engine reads as empty (a fresh memtable over an empty version, so no
// reader meets a nil) and refuses writes (refuseClosedLocked). Idempotent;
// a concurrent second Close waits for the first.
func (p *Persist) Close() error {
	p.closeOnce.Do(p.shutdown)
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.err
}

func (p *Persist) shutdown() {
	p.mu.Lock()
	for p.imm != nil && p.err == nil {
		p.flushCond.Wait()
	}
	if p.err == nil && len(p.mem.data) > 0 {
		p.imm, p.mem = p.mem, newMemtable()
		p.rotateWALLocked()
		p.mu.Unlock()
		p.doFlush()
		for p.compactOnce() {
		}
		p.mu.Lock()
	}
	p.closed = true
	p.flushCond.Broadcast()
	p.mu.Unlock()
	close(p.quit)
	c := &p.commit
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	p.wg.Wait()
	p.mu.Lock()
	if p.wal != nil {
		if err := p.wal.Sync(); err != nil && p.err == nil {
			p.err = fmt.Errorf("storage: persist close sync: %w", err)
		}
		if err := p.wal.Close(); err != nil && p.err == nil {
			p.err = fmt.Errorf("storage: persist close: %w", err)
		}
		p.wal = nil
	}
	v := p.version
	p.version = newVersion(nil)
	p.mem, p.imm = newMemtable(), nil
	p.mu.Unlock()
	c.mu.Lock()
	c.file = nil
	c.mu.Unlock()
	if v != nil {
		v.release()
	}
}

// Stats snapshots the engine's shape and counters.
func (p *Persist) Stats() PersistStats {
	st := PersistStats{Durability: p.durability, OpenWALRecords: p.openRecords, OpenWALBytes: p.openBytes}
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
	st.WALBytes = p.walBytes
	p.mu.RUnlock()
	st.Flushes = p.stats.flushes.Load()
	st.FlushedBytes = p.stats.flushedBytes.Load()
	st.Compactions = p.stats.compactions.Load()
	st.CompactedBytes = p.stats.compactedBytes.Load()
	st.StallWaits = p.stats.stallWaits.Load()
	st.BloomChecks = p.stats.bloomChecks.Load()
	st.BloomSkips = p.stats.bloomSkips.Load()
	st.BlockReads = p.stats.blockReads.Load()
	st.WALFsyncs = p.stats.fsyncs.Load()
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
	reg.GaugeFunc("storage_wal_bytes", "Bytes in the active WAL file.",
		func() float64 { return float64(p.Stats().WALBytes) })
	reg.GaugeFunc("storage_open_wal_records_replayed", "WAL records the engine's open replayed; 0 after a clean stop.",
		func() float64 { return float64(p.openRecords) })
	reg.GaugeFunc("storage_open_wal_bytes_replayed", "WAL bytes the engine's open replayed; 0 after a clean stop.",
		func() float64 { return float64(p.openBytes) })
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
	reg.CounterFunc("storage_wal_fsync_total", "WAL fsyncs (group commits, rotations).",
		p.stats.fsyncs.Load)
}
