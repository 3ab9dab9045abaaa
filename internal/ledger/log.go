package ledger

// The block log is the chain's durable spine: every block a peer commits
// is appended here BEFORE its write sets touch the state engines, so a
// crash-recovering peer can replay the exact committed sequence through
// the same validate-then-commit path a live delivery takes. The format is
// deliberately independent of the state engines — one CRC-framed JSON
// record per block — so an operator can also audit a chain with nothing
// but this file.
//
// Record framing (internal/walframe, shared with the storage WAL):
//
//	[4B big-endian payload length][4B IEEE CRC32 of payload][payload JSON]
//
// Opening never decodes what the opener already trusts: it CRC-scans the
// frames from a starting offset (0 for a bare OpenLog, the end of the
// savepoint block for a peer's ledger) to find where the log ends. A torn
// tail — a partial record where the process died mid-append — is
// truncated; every fully-appended block survives. Corruption before the
// tail (any CRC-valid record found after the damage) is a hard error:
// committed blocks are never silently destroyed. Frames below the
// starting offset are checked when they are read: every read verifies the
// frame's CRC and the block number it carries, and a mismatch is an error,
// never a wrong block.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"socialchain/internal/walframe"
)

// Log is an append-only, crash-tolerant file of committed blocks.
type Log struct {
	f      *os.File // never reassigned: readers use it without the appender's lock
	path   string
	end    int64  // one past the last complete frame: where the next append lands
	next   uint64 // number the next appended block must carry
	buf    []byte
	err    error // sticky append failure: a torn frame may be on disk
	closed bool
}

// OpenLog opens (or creates) the block log at path, CRC-checking every
// frame and truncating a torn tail. It decodes nothing; Blocks does.
func OpenLog(path string) (*Log, error) {
	return openLog(path, 0, 0, nil)
}

// openLog opens the log trusting the bytes below offset from, where block
// next's frame begins (or the file ends). Each complete frame at or above
// from is handed to found with its offset; an error from found fails the
// open without touching the file.
func openLog(path string, from int64, next uint64, found func(off int64, payload []byte) error) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("ledger: log dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: open log: %w", err)
	}
	l := &Log{f: f, path: path, end: from, next: next}
	if err := l.recover(found); err != nil {
		f.Close() // nothing was written through this handle
		return nil, err
	}
	return l, nil
}

// recover walks the frames from l.end to the end of the file.
func (l *Log) recover(found func(off int64, payload []byte) error) error {
	st, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("ledger: stat log: %w", err)
	}
	size := st.Size()
	if size < l.end {
		return fmt.Errorf("ledger: log %s is %d bytes but block %d's frame starts at %d (block log lost committed records)",
			l.path, size, l.next, l.end)
	}
	r := bufio.NewReaderSize(io.NewSectionReader(l.f, l.end, size-l.end), 1<<16)
	for l.end < size {
		payload, err := walframe.Read(r, l.buf, size-l.end)
		if err != nil {
			break // torn (or corrupt) record; discriminated below
		}
		l.buf = payload[:0]
		if found != nil {
			if err := found(l.end, payload); err != nil {
				return err
			}
		}
		l.end += walframe.HeaderLen + int64(len(payload))
		l.next++
	}
	if l.end == size {
		return nil
	}
	rest := make([]byte, size-l.end)
	if _, err := l.f.ReadAt(rest, l.end); err != nil {
		return fmt.Errorf("ledger: read log tail: %w", err)
	}
	if err := walframe.RecoverTail(l.path, rest, l.end); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return nil
}

// decodeBlock parses one frame payload and checks it carries block want.
func decodeBlock(payload []byte, want uint64) (*Block, error) {
	var b Block
	if err := json.Unmarshal(payload, &b); err != nil {
		return nil, fmt.Errorf("ledger: log record %d undecodable: %w", want, err)
	}
	if b.Header.Number != want {
		return nil, fmt.Errorf("ledger: log record %d carries block %d", want, b.Header.Number)
	}
	return &b, nil
}

// readBlock reads and decodes block want from the frame at off; limit is
// the offset the frame must end by.
func (l *Log) readBlock(off, limit int64, want uint64) (*Block, int64, error) {
	payload, err := walframe.Read(io.NewSectionReader(l.f, off, limit-off), nil, limit-off)
	if err != nil {
		return nil, 0, fmt.Errorf("ledger: log %s block %d at offset %d: %w", l.path, want, off, err)
	}
	b, err := decodeBlock(payload, want)
	return b, int64(len(payload)), err
}

// stream decodes the frames in [from, to) in order, the first of which
// holds block first, until fn returns false. size is the frame's payload
// length.
func (l *Log) stream(from, to int64, first uint64, fn func(b *Block, size int64) bool) error {
	r := bufio.NewReaderSize(io.NewSectionReader(l.f, from, to-from), 1<<18)
	var buf []byte
	for off, n := from, first; off < to; n++ {
		payload, err := walframe.Read(r, buf, to-off)
		if err != nil {
			return fmt.Errorf("ledger: log %s block %d at offset %d: %w", l.path, n, off, err)
		}
		buf = payload[:0]
		b, err := decodeBlock(payload, n)
		if err != nil {
			return err
		}
		if !fn(b, int64(len(payload))) {
			return nil
		}
		off += walframe.HeaderLen + int64(len(payload))
	}
	return nil
}

// Blocks reads and decodes the whole log — an explicit full read for
// audits; opening does not do it. Like the storage engine's serving path,
// it panics on a frame that fails its CRC or carries the wrong block
// number: OpenLog already checked every frame, so that is the disk
// changing underneath the process.
func (l *Log) Blocks() []*Block {
	out := make([]*Block, 0, l.next)
	err := l.stream(0, l.end, 0, func(b *Block, _ int64) bool {
		out = append(out, b)
		return true
	})
	if err != nil {
		panic(err)
	}
	return out
}

// Height returns the number of blocks the log holds.
func (l *Log) Height() uint64 { return l.next }

// Append writes one block. Blocks must arrive in chain order; the caller
// (the peer's commit path) appends here before applying state, so a crash
// between the two is repaired by replaying the log over the state's
// savepoint.
func (l *Log) Append(b *Block) error {
	if l.err != nil {
		// A failed write may have left a torn frame on disk; appending a
		// later complete frame after it would turn a recoverable torn
		// tail into unrecoverable mid-log corruption. Fail-stop instead.
		return l.err
	}
	if b.Header.Number != l.next {
		return fmt.Errorf("ledger: log append block %d at log height %d", b.Header.Number, l.next)
	}
	payload, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("ledger: log marshal block %d: %w", b.Header.Number, err)
	}
	buf := l.buf[:0]
	buf = append(buf, make([]byte, walframe.HeaderLen)...)
	buf = append(buf, payload...)
	walframe.Seal(buf)
	l.buf = buf
	if _, err := l.f.Write(buf); err != nil {
		l.err = fmt.Errorf("ledger: log append block %d: %w", b.Header.Number, err)
		return l.err
	}
	l.end += int64(len(buf))
	l.next++
	return nil
}

// Sync flushes appended blocks to stable storage (reporting a sticky
// append failure first).
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return nil
	}
	return l.f.Sync()
}

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
