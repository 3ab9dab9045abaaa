package walframe

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestEmptyFrameIsNoEvidence: eight zero bytes are a length of 0 and the
// CRC of nothing. Binary payloads and zero-filled tails are full of them,
// so the torn-tail scan must not take them for a committed frame that
// turns a torn tail into "corruption with committed frames after it". The
// frame itself stays readable: the sstable writes one for an absent bloom.
func TestEmptyFrameIsNoEvidence(t *testing.T) {
	zeros := make([]byte, 64)
	if p, next, err := Next(zeros, 0); err != nil || len(p) != 0 || next != HeaderLen {
		t.Fatalf("Next on an empty frame: %q, %d, %v", p, next, err)
	}
	if p, err := Read(bytes.NewReader(zeros), nil, int64(len(zeros))); err != nil || len(p) != 0 {
		t.Fatalf("Read on an empty frame: %q, %v", p, err)
	}
	if HasValidFrame(zeros) {
		t.Fatal("HasValidFrame found a frame in zero bytes")
	}

	good := append(make([]byte, HeaderLen), "payload"...)
	Seal(good)
	if p, next, err := Next(good, 0); err != nil || string(p) != "payload" || next != len(good) {
		t.Fatalf("Next on a sealed frame: %q, %d, %v", p, next, err)
	}
	// A torn frame whose surviving bytes hold a run of zeros is truncated.
	torn := append(make([]byte, HeaderLen), make([]byte, 40)...)
	Seal(torn)
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, append(append([]byte(nil), good...), torn[:30]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RecoverTail(path, torn[:30], int64(len(good))); err != nil {
		t.Fatalf("torn tail of zeros: %v", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(good)) {
		t.Fatalf("file is %d bytes after recovery, want %d", st.Size(), len(good))
	}
}
