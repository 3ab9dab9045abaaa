package walframe

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openTestLog(t *testing.T, policy Policy) *Log {
	t.Helper()
	l, err := OpenLog(filepath.Join(t.TempDir(), "front.log"), 0, policy, ignore)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestLogPolicies: SyncAlways fsyncs every append before it returns,
// SyncNone never on its own, SyncBatch within batchPeriod of the first
// unsynced append; a Sync with nothing new appended fsyncs nothing.
func TestLogPolicies(t *testing.T) {
	always := openTestLog(t, SyncAlways)
	none := openTestLog(t, SyncNone)
	for i := 0; i < 5; i++ {
		for _, l := range []*Log{always, none} {
			if _, err := l.Append(frame(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := always.Fsyncs(); got != 5 {
		t.Fatalf("SyncAlways: %d fsyncs for 5 appends", got)
	}
	if got := none.Fsyncs(); got != 0 {
		t.Fatalf("SyncNone: %d fsyncs on its own", got)
	}
	for i := 0; i < 2; i++ {
		if err := none.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := none.Fsyncs(); got != 1 {
		t.Fatalf("two Syncs with nothing appended between them fsynced %d times, want 1", got)
	}

	batch := openTestLog(t, SyncBatch)
	for i := 0; i < 3; i++ {
		if _, err := batch.Append(frame(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second) // a loaded machine may run the timer late
	for batch.Fsyncs() == 0 && time.Now().Before(deadline) {
		time.Sleep(batchPeriod)
	}
	if got := batch.Fsyncs(); got != 1 {
		t.Fatalf("SyncBatch: %d fsyncs for three appends inside one period, want 1", got)
	}
}

// TestLogSyncBesideAppend: Sync (a storage engine's flush hook, the
// SyncBatch timer) runs beside appenders and Close with no lock of the
// caller's; under -race this is the test that they share nothing
// unguarded. Every frame appended before a Sync returned is durable.
func TestLogSyncBesideAppend(t *testing.T) {
	for _, policy := range []Policy{SyncNone, SyncBatch, SyncAlways} {
		l := openTestLog(t, policy)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := l.Append(frame(fmt.Sprint(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				end := l.End()
				if err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
				l.mu.Lock()
				synced := l.synced
				l.mu.Unlock()
				if synced < end {
					t.Errorf("policy %d: Sync returned at %d with %d appended before it", policy, synced, end)
					return
				}
			}
		}()
		time.Sleep(time.Millisecond)
		close(stop)
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(frame("late")); err == nil {
			t.Fatalf("policy %d: append after Close succeeded", policy)
		}
	}
}
