package ledger

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// logChainOf builds a small hash-linked chain of empty blocks.
func logChainOf(n int) []*Block {
	var blocks []*Block
	prev := [32]byte{}
	for i := 0; i < n; i++ {
		b := NewBlock(uint64(i), prev, nil, time.Unix(int64(1000+i), 0))
		blocks = append(blocks, b)
		prev = b.Header.Hash()
	}
	return blocks
}

func TestLogAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.wal")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	chain := logChainOf(4)
	for _, b := range chain {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Blocks()
	if len(got) != len(chain) {
		t.Fatalf("recovered %d blocks, want %d", len(got), len(chain))
	}
	for i, b := range got {
		if b.Header.Hash() != chain[i].Header.Hash() {
			t.Fatalf("block %d hash differs after reopen", i)
		}
	}
	if re.Height() != 4 {
		t.Fatalf("Height = %d", re.Height())
	}
}

func TestLogRejectsOutOfOrderAppend(t *testing.T) {
	l, err := OpenLog(filepath.Join(t.TempDir(), "blocks.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	chain := logChainOf(3)
	if err := l.Append(chain[1]); err == nil {
		t.Fatal("accepted block 1 at log height 0")
	}
	if err := l.Append(chain[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(chain[2]); err == nil {
		t.Fatal("accepted block 2 at log height 1")
	}
}

// TestLogTornTail cuts the file at every offset inside the final record:
// recovery must always land on the last fully-appended block, truncate
// the garbage, and accept fresh appends.
func TestLogTornTail(t *testing.T) {
	ref := filepath.Join(t.TempDir(), "blocks.wal")
	l, err := OpenLog(ref)
	if err != nil {
		t.Fatal(err)
	}
	chain := logChainOf(3)
	var lastStart int64
	for _, b := range chain {
		st, err := os.Stat(ref)
		if err != nil {
			t.Fatal(err)
		}
		lastStart = st.Size()
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	for cut := lastStart; cut < int64(len(full)); cut += 7 { // stride keeps the sweep fast
		path := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenLog(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := len(re.Blocks()); got != 2 {
			t.Fatalf("cut %d: recovered %d blocks, want 2", cut, got)
		}
		// The torn tail is gone: re-appending block 2 must work.
		if err := re.Append(chain[2]); err != nil {
			t.Fatalf("cut %d: re-append: %v", cut, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		final, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(final.Blocks()); got != 3 {
			t.Fatalf("cut %d: after re-append recovered %d blocks", cut, got)
		}
		final.Close()
	}
}

// TestLogMidFileCorruptionIsFatal flips a byte in an EARLY record while
// valid blocks follow: recovery must refuse (and must not truncate the
// committed suffix away) rather than silently shorten the chain.
func TestLogMidFileCorruptionIsFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.wal")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range logChainOf(3) {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), data...)
	corrupted[20] ^= 0xff // inside block 0's payload
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path); err == nil {
		t.Fatal("mid-file corruption recovered silently")
	}
	// The committed suffix must still be on disk, untouched.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Fatalf("failed open truncated the log: %d -> %d bytes", len(data), len(after))
	}
}

func TestLogRejectsNumberingGap(t *testing.T) {
	// A log whose records skip a number is corrupt, not torn.
	path := filepath.Join(t.TempDir(), "blocks.wal")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	chain := logChainOf(2)
	if err := l.Append(chain[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append block 1's record twice by concatenating the file with itself
	// minus the genesis record — i.e. forge a duplicate number.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	forged := append(append([]byte(nil), data...), data...)
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	// Opening checks CRCs, not contents; the full read is where a frame
	// carrying the wrong number surfaces — loudly.
	l, err = OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("log with duplicate block numbers read back")
		}
	}()
	l.Blocks()
}
