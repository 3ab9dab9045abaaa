package walframe

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Log is an append-only file of frames, the core of the ledger's block log
// and an IPFS node's. Readers use ReadAt lock-free; the caller serialises
// the rest. A failed write or fsync is sticky: a frame appended after a
// torn one would turn a recoverable torn tail into mid-log corruption.
type Log struct {
	f      *os.File // never reassigned: readers use it without the appender's lock
	end    int64    // where the next append lands
	err    error
	closed bool
	synced int64 // the offset the last fsync covered
	fsyncs atomic.Int64
}

// OpenLog opens (or creates) the log at path, trusting the bytes below
// offset from, and finds its end with Recover, cutting a torn tail. found
// sees each frame at or above from; its error, or a file shorter than from
// (ErrLost), fails the open with the file untouched.
func OpenLog(path string, from int64, found func(off int64, payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("walframe: open log: %w", err)
	}
	end, err := Recover(f, from, true, found)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, end: end}, nil
}

// End returns the offset the next append lands at.
func (l *Log) End() int64 { return l.end }

// ReadAt reads the file at off.
func (l *Log) ReadAt(p []byte, off int64) (int, error) { return l.f.ReadAt(p, off) }

// Append writes one sealed frame at the end and returns its offset.
func (l *Log) Append(frame []byte) (int64, error) {
	if l.err != nil {
		return 0, l.err
	}
	if _, err := l.f.Write(frame); err != nil {
		l.err = fmt.Errorf("walframe: append to %s: %w", l.f.Name(), err)
		return 0, l.err
	}
	l.end += int64(len(frame))
	return l.end - int64(len(frame)), nil
}

// Sync flushes appended frames to stable storage, reporting a sticky
// failure first.
func (l *Log) Sync() error {
	if l.err != nil || l.closed {
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("walframe: sync %s: %w", l.f.Name(), err)
		return l.err
	}
	l.fsyncs.Add(1)
	l.synced = l.end
	return nil
}

// SyncTo fsyncs unless an earlier fsync already covered offset off.
func (l *Log) SyncTo(off int64) error {
	if l.synced >= off && l.err == nil {
		return nil
	}
	return l.Sync()
}

// Fsyncs counts the file's fsyncs since open.
func (l *Log) Fsyncs() int64 { return l.fsyncs.Load() }

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	err := l.Sync()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
