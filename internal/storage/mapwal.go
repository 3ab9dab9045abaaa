package storage

// The mapwal engine is the repo's first durable KV and is retained as the
// ablation baseline for the LSM persist engine (see lsm.go): one
// in-memory map holding the full key space (reads are as cheap as the
// single-lock engine) behind a segmented, append-only log of CRC-framed
// records, so the map can be rebuilt after a crash or restart. An
// ApplyBatch lands as ONE log record — after a crash either the whole
// block of writes is recovered or none of it, which is what lets the
// layers above treat "state batch + savepoint" as atomic. Its structural
// limits — RAM and reopen/replay cost grow with TOTAL state, not recent
// writes — are what the LSM removes; `benchharness -fig lsm` measures the
// two against each other.
//
// On-disk layout inside Config.Dir:
//
//	wal-<idx>.log   log segments, ascending contiguous indices
//	snap-<idx>.db   snapshot of the state after all segments with index
//	                < idx (written at a rotation boundary, so the active
//	                segment is empty when the snapshot is cut)
//	*.tmp           in-progress snapshot writes (cleaned on open)
//
// Record framing (shared by segments, snapshots and the ledger's block
// log — see internal/walframe):
//
//	[4B big-endian payload length][4B IEEE CRC32 of payload][payload]
//
// Payload: uvarint write-count, then per write an op byte (0 put,
// 1 delete), uvarint key length, key bytes and, for puts, uvarint value
// length plus value bytes.
//
// Recovery: load the newest snapshot, then replay segments with index >=
// the snapshot's in order. A torn tail — a partially-written record where
// the process died mid-append — is detected by the length/CRC framing and
// truncated; everything up to the last fully-committed record is
// recovered. Corruption in a *sealed* segment (not at the tail of the
// last one) is a hard error: data before a valid suffix cannot be skipped
// without silently losing writes.
//
// Compaction: when the active segment exceeds Config.SegmentBytes it is
// sealed and a fresh one started; once Config.CompactSegments sealed
// segments accumulate, the map is written out as a snapshot (to a temp
// file, fsynced, renamed) and the sealed segments deleted. Snapshots are
// therefore always complete: a crash mid-compaction leaves either the old
// segments or the new snapshot, never a half state.
//
// Durability model: appends reach the OS page cache synchronously (one
// write syscall per record), so state survives process death (kill -9)
// without any fsync. Sync() flushes to stable storage for power-loss
// durability; rotation and compaction fsync their artefacts before
// deleting what they replace.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"socialchain/internal/walframe"
)

const (
	// DefaultSegmentBytes is the rotation threshold for the active log
	// segment.
	DefaultSegmentBytes int64 = 4 << 20
	// DefaultCompactSegments is how many sealed segments accumulate before
	// snapshot compaction.
	DefaultCompactSegments = 4

	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".db"

	opPut    = 0
	opDelete = 1
)

// MapWAL is the map-plus-WAL disk engine.
type MapWAL struct {
	mu   sync.RWMutex
	data map[string][]byte

	dir             string
	seg             *os.File // active segment (nil after Close)
	segIdx          uint64
	segBytes        int64
	segmentBytes    int64
	compactSegments int
	sealed          int // sealed segments not yet compacted away
	buf             []byte
	err             error // sticky I/O error, reported by Sync/Close
	closed          bool
}

// OpenMapWAL opens (or creates) a mapwal engine in cfg.Dir, replaying
// any existing log. An empty Dir materialises a fresh temporary directory
// (see Config.Dir).
func OpenMapWAL(cfg Config) (*MapWAL, error) {
	dir := cfg.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "socialchain-mapwal-"); err != nil {
			return nil, fmt.Errorf("storage: mapwal temp dir: %w", err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mapwal dir %s: %w", dir, err)
	}
	p := &MapWAL{
		data:            make(map[string][]byte),
		dir:             dir,
		segmentBytes:    cfg.SegmentBytes,
		compactSegments: cfg.CompactSegments,
	}
	if p.segmentBytes <= 0 {
		p.segmentBytes = DefaultSegmentBytes
	}
	if p.compactSegments <= 0 {
		p.compactSegments = DefaultCompactSegments
	}
	if err := p.recover(); err != nil {
		return nil, err
	}
	return p, nil
}

// Dir returns the engine's data directory.
func (p *MapWAL) Dir() string { return p.dir }

// listFiles scans the data directory for segments and snapshots, deleting
// leftover temp files.
func (p *MapWAL) listFiles() (segs, snaps []uint64, err error) {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: mapwal scan %s: %w", p.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			_ = os.Remove(filepath.Join(p.dir, name))
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			if idx, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64); perr == nil {
				segs = append(segs, idx)
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			if idx, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 16, 64); perr == nil {
				snaps = append(snaps, idx)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

func (p *MapWAL) segPath(idx uint64) string {
	return filepath.Join(p.dir, fmt.Sprintf("%s%016x%s", segPrefix, idx, segSuffix))
}

func (p *MapWAL) snapPath(idx uint64) string {
	return filepath.Join(p.dir, fmt.Sprintf("%s%016x%s", snapPrefix, idx, snapSuffix))
}

// recover rebuilds the map from the newest snapshot plus the segments
// after it, truncates any torn tail off the last segment, and reopens it
// as the active segment.
func (p *MapWAL) recover() error {
	segs, snaps, err := p.listFiles()
	if err != nil {
		return err
	}
	base := uint64(0) // replay segments with idx >= base
	if len(snaps) > 0 {
		base = snaps[len(snaps)-1]
		if err := p.loadSnapshot(base); err != nil {
			return err
		}
		// Older snapshots and pre-snapshot segments are stale leftovers of
		// an interrupted compaction; drop them.
		for _, idx := range snaps[:len(snaps)-1] {
			_ = os.Remove(p.snapPath(idx))
		}
	}
	live := segs[:0]
	for _, idx := range segs {
		if idx < base {
			_ = os.Remove(p.segPath(idx))
			continue
		}
		live = append(live, idx)
	}
	if len(live) > 0 {
		// The first live segment must be the one the snapshot hands over
		// to (or segment 1 in a snapshot-free directory): a missing
		// leading segment means committed writes are gone, which must be
		// refused, not silently skipped.
		want := base
		if want == 0 {
			want = 1
		}
		if live[0] != want {
			return fmt.Errorf("storage: mapwal %s: first segment is %x, want %x (leading segment lost)", p.dir, live[0], want)
		}
	}
	for i, idx := range live {
		if i > 0 && idx != live[i-1]+1 {
			return fmt.Errorf("storage: mapwal %s: segment gap between %x and %x", p.dir, live[i-1], idx)
		}
		if err := p.replaySegment(idx, i == len(live)-1); err != nil {
			return err
		}
	}
	// Continue appending into the last segment, or start segment max(1,
	// base) in a fresh/compacted directory.
	p.segIdx = base
	if p.segIdx == 0 {
		p.segIdx = 1
	}
	if len(live) > 0 {
		p.segIdx = live[len(live)-1]
		p.sealed = len(live) - 1
	}
	f, err := os.OpenFile(p.segPath(p.segIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: mapwal open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: mapwal stat segment: %w", err)
	}
	p.seg, p.segBytes = f, st.Size()
	return nil
}

// loadSnapshot loads snap-<idx> into the map.
func (p *MapWAL) loadSnapshot(idx uint64) error {
	data, err := os.ReadFile(p.snapPath(idx))
	if err != nil {
		return fmt.Errorf("storage: mapwal snapshot: %w", err)
	}
	recs, _, err := parseRecords(data)
	if err != nil {
		// Snapshots are written to a temp file and renamed into place, so a
		// framing error is real corruption, not a torn write.
		return fmt.Errorf("storage: mapwal snapshot %s corrupt: %w", p.snapPath(idx), err)
	}
	for _, rec := range recs {
		if err := p.applyRecord(rec); err != nil {
			return fmt.Errorf("storage: mapwal snapshot %s: %w", p.snapPath(idx), err)
		}
	}
	return nil
}

// replaySegment applies segment idx to the map. For the last segment a
// trailing partial record (torn tail) is truncated away; anywhere else it
// is corruption.
func (p *MapWAL) replaySegment(idx uint64, last bool) error {
	path := p.segPath(idx)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("storage: mapwal segment: %w", err)
	}
	recs, good, err := parseRecords(data)
	if err != nil && !last {
		return fmt.Errorf("storage: mapwal segment %s corrupt: %w", path, err)
	}
	for _, rec := range recs {
		if aerr := p.applyRecord(rec); aerr != nil {
			return fmt.Errorf("storage: mapwal segment %s: %w", path, aerr)
		}
	}
	if err != nil {
		// Torn tail vs mid-segment corruption: truncate the former, fail
		// on the latter (shared decision logic — see walframe.RecoverTail).
		if terr := walframe.RecoverTail(path, data[good:], int64(good)); terr != nil {
			return fmt.Errorf("storage: mapwal segment: %w", terr)
		}
	}
	return nil
}

// parseRecords splits a log/snapshot image into its CRC-validated record
// payloads. good is the byte offset just past the last valid record; err
// is non-nil when framing or CRC validation failed there.
func parseRecords(data []byte) (recs [][]byte, good int, err error) {
	off := 0
	for off < len(data) {
		payload, next, perr := walframe.Next(data, off)
		if perr != nil {
			return recs, off, perr
		}
		recs = append(recs, payload)
		off = next
	}
	return recs, off, nil
}

// applyRecord replays one record's writes into the map.
func (p *MapWAL) applyRecord(rec []byte) error {
	return decodeRecord(rec, func(key string, val []byte, del bool) {
		if del {
			delete(p.data, key)
			return
		}
		p.data[key] = val
	})
}

// decodeRecord walks one log record's writes, invoking apply per write
// (value bytes are copied out of rec). Shared by the mapwal replay path
// and the LSM WAL replay path — the two engines share the record format.
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

// appendRecordFrame appends one framed record holding writes to buf and
// returns the extended slice. Shared by both durable engines.
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

// encodeFrame appends a framed record holding writes to p.buf and returns
// the full frame. Caller holds p.mu.
func (p *MapWAL) encodeFrame(writes []Write) []byte {
	p.buf = appendRecordFrame(p.buf[:0], writes)
	return p.buf
}

// appendLocked writes one framed record for writes and handles rotation.
// Caller holds p.mu. I/O errors are sticky: the in-memory state stays
// authoritative for the life of the process and Sync/Close report the
// failure.
func (p *MapWAL) appendLocked(writes []Write) {
	if p.err != nil || p.seg == nil {
		return
	}
	frame := p.encodeFrame(writes)
	if _, err := p.seg.Write(frame); err != nil {
		p.err = fmt.Errorf("storage: mapwal append: %w", err)
		return
	}
	p.segBytes += int64(len(frame))
	if p.segBytes >= p.segmentBytes {
		p.rotateLocked()
	}
}

// rotateLocked seals the active segment and starts the next one,
// compacting into a snapshot when enough sealed segments accumulated.
// Caller holds p.mu.
func (p *MapWAL) rotateLocked() {
	if err := p.seg.Sync(); err != nil {
		p.err = fmt.Errorf("storage: mapwal seal sync: %w", err)
		return
	}
	if err := p.seg.Close(); err != nil {
		p.err = fmt.Errorf("storage: mapwal seal close: %w", err)
		return
	}
	p.sealed++
	p.segIdx++
	f, err := os.OpenFile(p.segPath(p.segIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		p.err = fmt.Errorf("storage: mapwal rotate: %w", err)
		p.seg = nil
		return
	}
	p.seg, p.segBytes = f, 0
	if p.sealed >= p.compactSegments {
		p.compactLocked()
	}
}

// compactLocked writes the current map as snapshot snap-<segIdx> (the
// active segment is empty, so the snapshot exactly covers the sealed
// segments) and deletes the segments it subsumes. Caller holds p.mu, at a
// rotation boundary.
func (p *MapWAL) compactLocked() {
	tmp := p.snapPath(p.segIdx) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		p.err = fmt.Errorf("storage: mapwal compact: %w", err)
		return
	}
	// One record per key keeps peak encode memory at one entry; the
	// buffered writer keeps the syscall count O(bytes/64K) rather than
	// O(keys) — this all happens under the engine lock.
	bw := bufio.NewWriterSize(f, 1<<16)
	for k, v := range p.data {
		frame := p.encodeFrame([]Write{{Key: k, Value: v}})
		if _, err := bw.Write(frame); err != nil {
			f.Close()
			_ = os.Remove(tmp)
			p.err = fmt.Errorf("storage: mapwal compact write: %w", err)
			return
		}
	}
	err = bw.Flush()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		p.err = fmt.Errorf("storage: mapwal compact sync: %w", err)
		return
	}
	if err := os.Rename(tmp, p.snapPath(p.segIdx)); err != nil {
		p.err = fmt.Errorf("storage: mapwal compact rename: %w", err)
		return
	}
	// The snapshot is durable; everything it covers can go.
	for idx := p.segIdx - uint64(p.sealed); idx < p.segIdx; idx++ {
		_ = os.Remove(p.segPath(idx))
	}
	for idx := range p.listStaleSnapsLocked() {
		_ = os.Remove(p.snapPath(idx))
	}
	p.sealed = 0
}

// listStaleSnapsLocked returns snapshot indices older than the current one.
func (p *MapWAL) listStaleSnapsLocked() map[uint64]struct{} {
	out := make(map[uint64]struct{})
	if _, snaps, err := p.listFiles(); err == nil {
		for _, idx := range snaps {
			if idx != p.segIdx {
				out[idx] = struct{}{}
			}
		}
	}
	return out
}

// Get implements KV.
func (p *MapWAL) Get(key string) ([]byte, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	v, ok := p.data[key]
	return v, ok
}

// Put implements KV.
func (p *MapWAL) Put(key string, value []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, existed := p.data[key]
	p.data[key] = value
	p.appendLocked([]Write{{Key: key, Value: value}})
	return !existed
}

// Delete implements KV.
func (p *MapWAL) Delete(key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.data[key]
	if ok {
		delete(p.data, key)
		p.appendLocked([]Write{{Key: key, Delete: true}})
	}
	return v, ok
}

// IterPrefix implements KV: entries are collected under the read lock,
// sorted, and fn runs lock-free on the collected view.
func (p *MapWAL) IterPrefix(prefix string, fn func(key string, value []byte) bool) {
	p.mu.RLock()
	entries := collectPrefix(p.data, prefix, nil)
	p.mu.RUnlock()
	sortEntries(entries)
	for _, e := range entries {
		if !fn(e.key, e.value) {
			return
		}
	}
}

// ApplyBatch implements KV: the whole batch lands as one atomic log
// record under one lock acquisition.
func (p *MapWAL) ApplyBatch(writes []Write) {
	if len(writes) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range writes {
		if w.Delete {
			delete(p.data, w.Key)
			continue
		}
		p.data[w.Key] = w.Value
	}
	p.appendLocked(writes)
}

// Len implements KV.
func (p *MapWAL) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.data)
}

// Sync implements KV: flush the active segment to stable storage.
func (p *MapWAL) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if p.seg == nil {
		return nil
	}
	if err := p.seg.Sync(); err != nil {
		p.err = fmt.Errorf("storage: mapwal sync: %w", err)
	}
	return p.err
}

// Close implements KV: sync and close the active segment. Idempotent.
func (p *MapWAL) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return p.err
	}
	p.closed = true
	if p.seg != nil {
		if err := p.seg.Sync(); err != nil && p.err == nil {
			p.err = fmt.Errorf("storage: mapwal close sync: %w", err)
		}
		if err := p.seg.Close(); err != nil && p.err == nil {
			p.err = fmt.Errorf("storage: mapwal close: %w", err)
		}
		p.seg = nil
	}
	return p.err
}
