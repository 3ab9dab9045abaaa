package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"socialchain/internal/statedb"
	"socialchain/internal/walframe"
)

// ErrNotFound is returned for unknown blocks or transactions.
var ErrNotFound = errors.New("ledger: not found")

// Ledger is an append-only chain of blocks with a transaction index: a
// view over a block log, the only way a chain is kept. Memory holds the
// height, the tip hash, the chain counters and a small cache of decoded
// blocks; blocks are read from the file by offset, and the block→offset
// and txID→location entries live in the world-state engine's reserved
// keyspace, written in the same batch as the block's state (see Stage), so
// they are atomic with the savepoint recovery starts from. A peer without
// a data directory keeps the same log in an unlinked temporary file.
type Ledger struct {
	mu     sync.RWMutex
	height uint64
	tip    [32]byte // hash of block height-1's header
	txs    int      // transactions in blocks below height
	valid  int      // of which flagged Valid
	end    int64    // one past block height-1's frame

	log   *Log
	index *statedb.DB
	cache blockCache

	// wmu orders the committer's Stage/Append pairs and guards staged and
	// tail; the file append runs under it, not under mu, so readers never
	// wait on a write.
	wmu    sync.Mutex
	staged *logged
	tail   []logged // blocks above the savepoint found at open, oldest first

	reads       atomic.Int64 // blocks decoded from the file after open
	openDecoded int          // blocks decoded by Open
}

// logged is one block with the extent of its frame in the block file.
type logged struct {
	b        *Block
	off, end int64
}

// Reserved keys (statedb.ReservedWrite) the ledger keeps in the state
// engine. Their first bytes differ from each other and from statedb's own
// "savepoint", so no two can collide.
const (
	blockKeyPrefix = "B" // + 8-byte big-endian number -> frame offset
	txKeyPrefix    = "T" // + transaction ID -> block, index, flag
	chainKey       = "L" // height, txs, valid, end offset, tip hash
)

// Open returns a ledger over the block log at path, indexed in db's
// reserved keyspace; with path empty, over a new log in an unlinked
// temporary file (walframe.OpenTemp), gone when the ledger closes. It
// reads the chain record written with db's savepoint, checks the frames
// above that block's end (truncating a torn tail) and decodes only those:
// they are blocks logged but not applied when the process died, handed out
// by Tail for the committer to replay. Nothing at or below the savepoint
// is read. The log is db's front log: it fsyncs under the policy db's
// durability selects (under storage.DurabilityAlways every staged block),
// and db's flushes fsync it through Sync.
func Open(path string, db *statedb.DB) (*Ledger, error) {
	l := &Ledger{index: db, cache: blockCache{max: blockCacheBytes}}
	st, _ := db.StorageStats()
	policy := st.Durability.LogPolicy()
	if sp, ok := db.Savepoint(); ok {
		rec, ok := db.Reserved(chainKey)
		if !ok || len(rec) != chainRecordLen {
			return nil, fmt.Errorf("ledger: state savepoint %d has no chain record (data directory written without a block index)", sp)
		}
		l.height = binary.BigEndian.Uint64(rec[0:])
		l.txs = int(binary.BigEndian.Uint64(rec[8:]))
		l.valid = int(binary.BigEndian.Uint64(rec[16:]))
		l.end = int64(binary.BigEndian.Uint64(rec[24:]))
		copy(l.tip[:], rec[32:])
		if l.height != sp+1 {
			return nil, fmt.Errorf("ledger: chain record at height %d beside state savepoint %d", l.height, sp)
		}
	}
	open := func(path string) (err error) {
		l.log, err = openLog(path, l.end, l.height, policy, func(off int64, payload []byte) error {
			b, err := decodeBlock(payload, l.height+uint64(len(l.tail)))
			if err != nil {
				return err
			}
			l.tail = append(l.tail, logged{b: b, off: off, end: off + walframe.HeaderLen + int64(len(payload))})
			return nil
		})
		return err
	}
	var err error
	if path == "" {
		err = walframe.OpenTemp("socialchain-ledger-*.wal", open)
	} else {
		err = open(path)
	}
	if err != nil {
		return nil, err
	}
	l.openDecoded = len(l.tail)
	if l.height == 0 && len(l.tail) > 0 {
		// Genesis writes no state, so no savepoint covers it: adopt it
		// from the file.
		g := l.tail[0]
		if err := checkLink(g.b, 0, l.tip); err != nil {
			l.log.Close()
			return nil, err
		}
		l.tail = l.tail[1:]
		l.advance(g)
	}
	return l, nil
}

// chainRecordLen is the encoded size of the chainKey value.
const chainRecordLen = 4*8 + 32

// Tail returns the blocks Open found above the state's savepoint, in
// order. The committer re-validates and re-commits each one (Stage, state,
// Append) before anything else can be staged.
func (l *Ledger) Tail() []*Block {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	out := make([]*Block, len(l.tail))
	for i := range l.tail {
		out[i] = l.tail[i].b
	}
	return out
}

// Height returns the number of committed blocks.
func (l *Ledger) Height() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.height
}

// TipHash returns the hash of the latest block header, or the zero hash for
// an empty chain.
func (l *Ledger) TipHash() [32]byte {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tip
}

// checkLink checks that b is block n of a chain whose last header hashes
// to prev: its number, its prev-hash link, its data hash and one flag per
// transaction. Stage runs it on every block before the log sees it;
// VerifyChain and VerifyExport, through a linker, on every block they
// read back.
func checkLink(b *Block, n uint64, prev [32]byte) error {
	switch {
	case b.Header.Number != n:
		return fmt.Errorf("ledger: block %d has number %d", n, b.Header.Number)
	case b.Header.PrevHash != prev:
		return fmt.Errorf("ledger: block %d prev-hash broken", n)
	case ComputeDataHash(b.Txs) != b.Header.DataHash:
		return fmt.Errorf("ledger: block %d data hash broken", n)
	}
	return checkFlags(b)
}

// checkFlags refuses a block whose flag count differs from its
// transaction count: the header hash does not cover the flags, and every
// reader indexes them by transaction.
func checkFlags(b *Block) error {
	if len(b.Metadata.Flags) != len(b.Txs) {
		return fmt.Errorf("ledger: block %d has %d flags for %d txs", b.Header.Number, len(b.Metadata.Flags), len(b.Txs))
	}
	return nil
}

// linker checks a chain read back from its first block, one block at a
// time: the step VerifyChain and VerifyExport share.
type linker struct {
	n   uint64   // blocks checked
	tip [32]byte // hash of the last one's header
}

func (c *linker) next(b *Block) error {
	if err := checkLink(b, c.n, c.tip); err != nil {
		return err
	}
	c.n++
	c.tip = b.Header.Hash()
	return nil
}

// Stage is the first half of a commit. It checks that b is the next block
// (checkLink), so a malformed block can never reach the durable log, and
// appends it to the block file unless it is the next Tail block, which is
// already there. From that point the block is committed: a process that
// dies before Append finds it in the Tail of its next Open.
// Under DurabilityAlways the block is also fsynced before Stage returns
// (a tail block was fsynced by Open). Whatever the policy, the state
// engine fsyncs the log before it publishes a table holding the block's
// savepoint, so a power loss can never leave the savepoint above the
// log's end.
// The returned entries — the block's offset, each transaction's location
// and flag, the chain record — must ride b's state batch
// (statedb.ApplyBlockAt).
func (l *Ledger) Stage(b *Block) ([]statedb.ReservedWrite, error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.RLock()
	err := checkLink(b, l.height, l.tip)
	txs, valid := l.txs, l.valid
	l.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	var at logged
	if len(l.tail) > 0 {
		if l.tail[0].b != b {
			return nil, fmt.Errorf("ledger: stage block %d while %d logged blocks await replay", b.Header.Number, len(l.tail))
		}
		at = l.tail[0]
	} else {
		at = logged{b: b, off: l.log.w.End()}
		if err := l.log.Append(b); err != nil {
			return nil, err
		}
		at.end = l.log.w.End()
	}
	l.staged = &at

	number := b.Header.Number
	out := make([]statedb.ReservedWrite, 0, len(b.Txs)+2)
	out = append(out, statedb.ReservedWrite{Key: blockKey(number), Value: binary.BigEndian.AppendUint64(nil, uint64(at.off))})
	for i := range b.Txs {
		loc := make([]byte, txRecordLen)
		binary.BigEndian.PutUint64(loc[0:], number)
		binary.BigEndian.PutUint32(loc[8:], uint32(i))
		loc[12] = byte(b.Metadata.Flags[i])
		out = append(out, statedb.ReservedWrite{Key: txKeyPrefix + b.Txs[i].ID, Value: loc})
	}
	blockValid := countValid(b)
	rec := make([]byte, chainRecordLen)
	binary.BigEndian.PutUint64(rec[0:], number+1)
	binary.BigEndian.PutUint64(rec[8:], uint64(txs+len(b.Txs)))
	binary.BigEndian.PutUint64(rec[16:], uint64(valid+blockValid))
	binary.BigEndian.PutUint64(rec[24:], uint64(at.end))
	tip := b.Header.Hash()
	copy(rec[32:], tip[:])
	return append(out, statedb.ReservedWrite{Key: chainKey, Value: rec}), nil
}

// txRecordLen is the encoded size of a txKeyPrefix value.
const txRecordLen = 8 + 4 + 1

func blockKey(n uint64) string {
	return string(binary.BigEndian.AppendUint64([]byte(blockKeyPrefix), n))
}

func countValid(b *Block) int {
	n := 0
	for _, f := range b.Metadata.Flags {
		if f == Valid {
			n++
		}
	}
	return n
}

// Append makes a block visible: height, tip and counters advance and
// readers can find it. b must be the block just staged, whose state batch
// has landed.
func (l *Ledger) Append(b *Block) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.staged == nil || l.staged.b != b {
		return fmt.Errorf("ledger: append block %d that was not staged", b.Header.Number)
	}
	if len(l.tail) > 0 {
		l.tail = l.tail[1:]
	}
	l.advance(*l.staged)
	l.staged = nil
	return nil
}

// advance moves the visible chain past at.b. Caller holds mu (or owns l).
func (l *Ledger) advance(at logged) {
	l.height = at.b.Header.Number + 1
	l.tip = at.b.Header.Hash()
	l.txs += len(at.b.Txs)
	l.valid += countValid(at.b)
	l.end = at.end
}

// view snapshots what a reader needs: the visible height and the offset
// its last frame ends at.
func (l *Ledger) view() (height uint64, end int64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.height, l.end
}

// offsetOf returns where block n's frame starts.
func (l *Ledger) offsetOf(n uint64) (int64, error) {
	if n == 0 {
		return 0, nil // genesis: first frame, and no state batch to carry an entry
	}
	v, ok := l.index.Reserved(blockKey(n))
	if !ok || len(v) != 8 {
		return 0, fmt.Errorf("ledger: block %d below height has no offset entry (block index damaged)", n)
	}
	return int64(binary.BigEndian.Uint64(v)), nil
}

// GetBlock returns block n. Callers must not modify it.
func (l *Ledger) GetBlock(n uint64) (*Block, error) {
	height, end := l.view()
	if n >= height {
		return nil, fmt.Errorf("%w: block %d (height %d)", ErrNotFound, n, height)
	}
	if b := l.cache.get(n); b != nil {
		return b, nil
	}
	off, err := l.offsetOf(n)
	if err != nil {
		return nil, err
	}
	b, size, err := l.log.readBlock(off, end, n)
	if err != nil {
		return nil, err
	}
	l.reads.Add(1)
	l.cache.add(b, size)
	return b, nil
}

// TxLocation reports where a committed transaction sits — block number,
// index in the block — and its validation flag, without reading the block:
// one point read of the state engine.
func (l *Ledger) TxLocation(txID string) (block uint64, idx int, flag ValidationCode, ok bool) {
	v, ok := l.index.Reserved(txKeyPrefix + txID)
	if !ok || len(v) != txRecordLen {
		return 0, 0, InvalidOther, false
	}
	block = binary.BigEndian.Uint64(v[0:])
	if block >= l.Height() {
		// The entry landed with the block's state; the block itself is
		// not visible until Append.
		return 0, 0, InvalidOther, false
	}
	return block, int(binary.BigEndian.Uint32(v[8:])), ValidationCode(v[12]), true
}

// GetTx returns a transaction, its validation flag, and its block number.
func (l *Ledger) GetTx(txID string) (*Transaction, ValidationCode, uint64, error) {
	blockNum, idx, flag, ok := l.TxLocation(txID)
	if !ok {
		return nil, InvalidOther, 0, fmt.Errorf("%w: tx %s", ErrNotFound, txID)
	}
	b, err := l.GetBlock(blockNum)
	if err != nil {
		return nil, InvalidOther, 0, err
	}
	if idx >= len(b.Txs) || b.Txs[idx].ID != txID {
		return nil, InvalidOther, 0, fmt.Errorf("ledger: tx %s is not at block %d index %d (block index damaged)", txID, blockNum, idx)
	}
	return &b.Txs[idx], flag, blockNum, nil
}

// HasTx reports whether txID is committed (valid or not).
func (l *Ledger) HasTx(txID string) bool {
	_, _, _, ok := l.TxLocation(txID)
	return ok
}

// walk calls fn for blocks [from, height) in order until it returns
// false. It streams the file and keeps nothing; a frame that fails its
// CRC or its decode checks ends the walk with an error.
func (l *Ledger) walk(from uint64, fn func(b *Block, size int64) bool) error {
	height, end := l.view()
	if from >= height {
		return nil
	}
	off, err := l.offsetOf(from)
	if err != nil {
		return err
	}
	return l.log.stream(off, end, from, func(b *Block, size int64) bool {
		l.reads.Add(1)
		return fn(b, size)
	})
}

// Iterate calls fn for every block in order; fn returning false stops.
// Having no error to return, it panics when the block file fails a read —
// the storage engine's policy for a serving-path CRC failure.
func (l *Ledger) Iterate(fn func(*Block) bool) {
	if err := l.walk(0, func(b *Block, _ int64) bool { return fn(b) }); err != nil {
		panic(err)
	}
}

// VerifyChain re-checks the whole hash chain, every data hash and every
// flag count, returning the first inconsistency. This is the
// tamper-evidence property the paper relies on for provenance. It also
// proves the file readable end to end, and that its last block is the tip
// memory holds.
func (l *Ledger) VerifyChain() error {
	var c linker
	var bad error
	err := l.walk(0, func(b *Block, _ int64) bool {
		bad = c.next(b)
		return bad == nil
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.height == c.n && c.tip != l.tip {
		return fmt.Errorf("ledger: chain of %d blocks ends in a different tip than the ledger holds", c.n)
	}
	return nil
}

// Stats summarises the chain for monitoring.
type Stats struct {
	Height   uint64
	TotalTxs int
	ValidTxs int
}

// Stats returns the chain counters, kept current by Append and restored
// by Open from the chain record: no block is read.
func (l *Ledger) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return Stats{Height: l.height, TotalTxs: l.txs, ValidTxs: l.valid}
}

// IOStats counts the block file's traffic.
type IOStats struct {
	CacheHits   int64 // GetBlock calls served from the block cache
	CacheMisses int64 // GetBlock calls that read the file
	BlockReads  int64 // blocks decoded from the file since Open
	OpenDecoded int   // blocks Open decoded: those above the savepoint
	Fsyncs      int64 // fsyncs of the file since Open: one per staged block under DurabilityAlways, plus the state engine's flushes
}

// IOStats snapshots the block file counters.
func (l *Ledger) IOStats() IOStats {
	return IOStats{
		CacheHits:   l.cache.hits.Load(),
		CacheMisses: l.cache.misses.Load(),
		BlockReads:  l.reads.Load(),
		OpenDecoded: l.openDecoded,
		Fsyncs:      l.log.w.Fsyncs(),
	}
}

// Sync makes the block file durable up to its end. It is the state
// engine's flush hook (storage.Config.SyncFront), so it takes
// none of the ledger's locks: a commit may be stalled inside its state
// batch, waiting for the very flush that calls it.
func (l *Ledger) Sync() error { return l.log.w.Sync() }

// Close syncs and closes the block file and empties the block cache. Reads
// after Close fail.
func (l *Ledger) Close() error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.cache.clear()
	return l.log.Close()
}
