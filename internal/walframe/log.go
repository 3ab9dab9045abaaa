package walframe

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Policy is when a Log fsyncs on its own. Whatever the policy, the
// storage engine that indexes a log asks for one fsync before it
// publishes a table (storage.Config.SyncFront), so the index never names
// a frame a power loss can take.
type Policy uint8

const (
	// SyncNone leaves appended frames to the page cache until the
	// engine's next flush or Close.
	SyncNone Policy = iota
	// SyncBatch fsyncs within batchPeriod of the first unsynced append,
	// on a timer: appenders never wait.
	SyncBatch
	// SyncAlways fsyncs every append before Append returns.
	SyncAlways
)

// batchPeriod bounds how long SyncBatch leaves an append unsynced.
const batchPeriod = 5 * time.Millisecond

// Log is an append-only file of frames, the core of the ledger's block log
// and an IPFS node's: the front log of the storage engine that indexes
// it. Readers use ReadAt lock-free; Append, Sync and Close are safe from
// any goroutine, and Sync never holds up an Append while it fsyncs. A
// failed write or fsync is sticky: a frame appended after a torn one
// would turn a recoverable torn tail into mid-log corruption.
type Log struct {
	f      *os.File // never reassigned: readers use it without a lock
	policy Policy
	fsyncs atomic.Int64

	// syncMu admits one fsync at a time, and Close waits for it. Lock
	// order: syncMu before mu.
	syncMu sync.Mutex

	mu     sync.Mutex
	end    int64 // where the next append lands
	synced int64 // the offset the last fsync covered
	err    error
	closed bool
	timer  *time.Timer // SyncBatch's pending fsync
}

// OpenLog opens the log at path, trusting the bytes below offset from,
// and finds its end with Recover, cutting a torn tail. Only a log trusted
// with nothing (from 0) is created when missing. found sees each frame at
// or above from; its error, or a file missing or shorter than from
// (ErrLost), fails the open with the file untouched. Under SyncAlways the
// frames found are fsynced before OpenLog returns: their appender may have
// died before its own fsync.
func OpenLog(path string, from int64, policy Policy, found func(off int64, payload []byte) error) (*Log, error) {
	flags := os.O_RDWR | os.O_APPEND
	if from == 0 {
		flags |= os.O_CREATE
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s is missing but its frames reach offset %d", ErrLost, path, from)
	}
	if err != nil {
		return nil, fmt.Errorf("walframe: open log: %w", err)
	}
	end, err := Recover(f, from, true, found)
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{f: f, policy: policy, end: end, synced: from}
	if policy == SyncAlways {
		if err := l.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return l, nil
}

// OpenTemp creates an empty file in the temporary directory, named after
// pattern (os.CreateTemp), hands its path to open and unlinks it when open
// returns: a log opened there lives on its handle until Close and leaves
// nothing behind. A store without a data directory opens its log this way,
// through the same open as a durable one.
func OpenTemp(pattern string, open func(path string) error) error {
	f, err := os.CreateTemp("", pattern)
	if err != nil {
		return fmt.Errorf("walframe: temp log: %w", err)
	}
	f.Close()
	defer os.Remove(f.Name())
	return open(f.Name())
}

// End returns the offset the next append lands at.
func (l *Log) End() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// ReadAt reads the file at off.
func (l *Log) ReadAt(p []byte, off int64) (int, error) { return l.f.ReadAt(p, off) }

// Append writes one sealed frame at the end and returns its offset, then
// applies the log's Policy.
func (l *Log) Append(frame []byte) (int64, error) {
	off, err := l.write(frame)
	if err == nil && l.policy == SyncAlways {
		err = l.Sync()
	}
	return off, err
}

// write appends frame and, under SyncBatch, arms the timer.
func (l *Log) write(frame []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if _, err := l.f.Write(frame); err != nil {
		l.err = fmt.Errorf("walframe: append to %s: %w", l.f.Name(), err)
		return 0, l.err
	}
	off := l.end
	l.end += int64(len(frame))
	if l.policy == SyncBatch && l.timer == nil {
		l.timer = time.AfterFunc(batchPeriod, l.batchSync)
	}
	return off, nil
}

// batchSync is SyncBatch's timer. A failure stays sticky for the next
// Append to report.
func (l *Log) batchSync() {
	l.mu.Lock()
	l.timer = nil
	l.mu.Unlock()
	_ = l.Sync()
}

// Sync makes every frame appended so far durable, reporting a sticky
// failure first. It fsyncs only when something was appended since the
// last fsync.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncHeld()
}

// syncHeld is Sync with syncMu held.
func (l *Log) syncHeld() error {
	l.mu.Lock()
	end, err, done := l.end, l.err, l.closed || l.synced >= l.end
	l.mu.Unlock()
	if err != nil || done {
		return err
	}
	serr := l.f.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if serr != nil {
		if l.err == nil {
			l.err = fmt.Errorf("walframe: sync %s: %w", l.f.Name(), serr)
		}
		return l.err
	}
	l.fsyncs.Add(1)
	l.synced = end
	return nil
}

// Fsyncs counts the file's fsyncs since open.
func (l *Log) Fsyncs() int64 { return l.fsyncs.Load() }

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	err := l.syncHeld()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
