package ledger

// The block log is the chain's durable spine: every block a peer commits
// is appended here BEFORE its write sets touch the state engines, so a
// crash-recovering peer can replay the exact committed sequence through
// the same validate-then-commit path a live delivery takes. The file is
// independent of the state engines, but it is not meant to be read by eye:
// a record is the block's canonical binary encoding (internal/codec, the
// same bytes the block has on the wire and under its hashes). To audit a
// chain, open the directory and stream it out as JSON with Ledger.Export,
// or re-verify a dump offline as examples/chainaudit does.
//
// The file is a walframe.Log, the core an IPFS node's block log shares; a
// frame's payload is
//
//	[1B format version = logFormat][block: Block.AppendTo]
//
// Opening checks the version byte of the first record — format 2 held
// chaincode events and a channel ID in every transaction and left the
// timestamp unsigned, format 1 held every argument and a full identity and
// digest per endorsement, a log from before the binary encoding starts
// with '{' — and refuses a log of any other format without touching the
// file; there is no migration and no second reader. Beyond that, opening
// never decodes what the opener already trusts: walframe.Recover scans the
// frames from a starting offset (0 for a bare OpenLog, the end of the
// savepoint block for a peer's ledger), cutting a torn tail and refusing
// mid-log corruption. Frames below the starting offset are checked when
// they are read: every read verifies the frame's CRC, the format version,
// the block number it carries and its one flag per transaction, and a
// mismatch is an error, never a wrong block.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"socialchain/internal/codec"
	"socialchain/internal/walframe"
)

// Log is an append-only, crash-tolerant file of committed blocks: a
// walframe.Log whose frames carry blocks in chain order.
type Log struct {
	w    *walframe.Log
	path string
	next uint64 // number the next appended block must carry
}

// logFormat is the block-log record format this build writes and reads:
// the first byte of every record's payload.
const logFormat = 3

// checkFormat rejects a record payload in any format but logFormat.
func checkFormat(payload []byte) error {
	const only = "this build reads block-log format %d only (no migration: start from an empty data directory)"
	switch {
	case len(payload) > 0 && payload[0] == logFormat:
		return nil
	case len(payload) > 0 && payload[0] == '{':
		return fmt.Errorf("ledger: block log holds JSON records, written by an older build; "+only, logFormat)
	case len(payload) > 0 && payload[0] < logFormat:
		return fmt.Errorf("ledger: block log is in format %d, written by an older build; "+only, payload[0], logFormat)
	}
	return fmt.Errorf("ledger: block-log record is not in format %d", logFormat)
}

// OpenLog opens (or creates) the block log at path, CRC-checking every
// frame and truncating a torn tail. It decodes nothing; Blocks does.
func OpenLog(path string) (*Log, error) {
	return openLog(path, 0, 0, walframe.SyncNone, func(int64, []byte) error { return nil })
}

// openLog opens the log trusting the bytes below offset from, where block
// next's frame begins (or the file ends), fsyncing under policy; found
// sees each frame above it (see walframe.OpenLog).
func openLog(path string, from int64, next uint64, policy walframe.Policy, found func(off int64, payload []byte) error) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("ledger: log dir: %w", err)
	}
	if err := checkFirst(path); err != nil {
		return nil, err
	}
	l := &Log{path: path, next: next}
	w, err := walframe.OpenLog(path, from, policy, func(off int64, payload []byte) error {
		l.next++
		return found(off, payload)
	})
	if errors.Is(err, walframe.ErrLost) {
		err = fmt.Errorf("ledger: block log lost committed records from block %d: %w", next, err)
	}
	if err != nil {
		return nil, err
	}
	l.w = w
	return l, nil
}

// checkFirst tells a log of another format from a damaged one before
// anything decides to truncate it, wherever the scan starts. It refuses a
// first record that starts with '{' (a JSON log) or that is CRC-valid
// under another version byte; anything else — no file, a short one, a
// first record torn into zeros — is left to recover.
func checkFirst(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ledger: open log: %w", err)
	}
	defer f.Close()
	var head [walframe.HeaderLen + 1]byte
	if n, _ := f.ReadAt(head[:], 0); n < len(head) {
		return nil
	}
	first := head[walframe.HeaderLen:]
	if first[0] == logFormat {
		return nil
	}
	if first[0] != '{' {
		st, err := f.Stat()
		if err != nil {
			return fmt.Errorf("ledger: stat log: %w", err)
		}
		payload, err := walframe.Read(io.NewSectionReader(f, 0, st.Size()), nil, st.Size())
		if err != nil || len(payload) == 0 {
			return nil
		}
		first = payload
	}
	return fmt.Errorf("%w (%s)", checkFormat(first), path)
}

// decodeBlock parses one frame payload and checks it carries block want,
// with a flag for each transaction.
func decodeBlock(payload []byte, want uint64) (*Block, error) {
	if err := checkFormat(payload); err != nil {
		return nil, err
	}
	b, err := DecodeBlock(payload[1:])
	if err != nil {
		return nil, fmt.Errorf("ledger: log record %d undecodable: %w", want, err)
	}
	if b.Header.Number != want {
		return nil, fmt.Errorf("ledger: log record %d carries block %d", want, b.Header.Number)
	}
	if err := checkFlags(b); err != nil {
		return nil, err
	}
	return b, nil
}

// readBlock reads and decodes block want from the frame at off; limit is
// the offset the frame must end by.
func (l *Log) readBlock(off, limit int64, want uint64) (*Block, int64, error) {
	payload, err := walframe.Read(io.NewSectionReader(l.w, off, limit-off), nil, limit-off)
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
	r := bufio.NewReaderSize(io.NewSectionReader(l.w, from, to-from), 1<<18)
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
	err := l.stream(0, l.w.End(), 0, func(b *Block, _ int64) bool {
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

// Append writes one block, fsyncing it as the log's policy says. Blocks
// must arrive in chain order; the caller (the peer's commit path) appends
// here before applying state, so a crash between the two is repaired by
// replaying the log over the state's savepoint.
func (l *Log) Append(b *Block) error {
	if b.Header.Number != l.next {
		return fmt.Errorf("ledger: log append block %d at log height %d", b.Header.Number, l.next)
	}
	var err error
	codec.Scratch(func(frame []byte) []byte {
		frame = b.AppendTo(append(append(frame, make([]byte, walframe.HeaderLen)...), logFormat))
		walframe.Seal(frame)
		_, err = l.w.Append(frame)
		return frame
	})
	if err != nil {
		return fmt.Errorf("ledger: log append block %d: %w", b.Header.Number, err)
	}
	l.next++
	return nil
}

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error { return l.w.Close() }
