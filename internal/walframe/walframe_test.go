package walframe

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// frame seals payload into one frame.
func frame(payload string) []byte {
	f := append(make([]byte, HeaderLen), payload...)
	Seal(f)
	return f
}

// logFile writes data to the file at path and opens it for the scan.
func logFile(t testing.TB, path string, data []byte) *os.File {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// contents reads back what f holds.
func contents(t testing.TB, f *os.File) []byte {
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recoverFile runs Recover over a file holding data and returns what the
// scan left in it.
func recoverFile(t testing.TB, data []byte, truncate bool, fn func(off int64, payload []byte) error) (left []byte, end int64, err error) {
	f := logFile(t, filepath.Join(t.TempDir(), "log"), data)
	end, err = Recover(f, 0, truncate, fn)
	return contents(t, f), end, err
}

func ignore(int64, []byte) error { return nil }

// TestEmptyFrameIsNoEvidence: eight zero bytes are a length of 0 and the
// CRC of nothing. Binary payloads and zero-filled tails are full of them,
// so the torn-tail scan must not take them for a committed frame that
// turns a torn tail into "corruption with committed frames after it", nor
// for a record. The frame itself stays readable: the sstable writes one
// for an absent bloom.
func TestEmptyFrameIsNoEvidence(t *testing.T) {
	zeros := make([]byte, 64)
	if p, next, err := Next(zeros, 0); err != nil || len(p) != 0 || next != HeaderLen {
		t.Fatalf("Next on an empty frame: %q, %d, %v", p, next, err)
	}
	if p, err := Read(bytes.NewReader(zeros), nil, int64(len(zeros))); err != nil || len(p) != 0 {
		t.Fatalf("Read on an empty frame: %q, %v", p, err)
	}
	if hasValidFrame(zeros) {
		t.Fatal("hasValidFrame found a frame in zero bytes")
	}

	good := frame("payload")
	if p, next, err := Next(good, 0); err != nil || string(p) != "payload" || next != len(good) {
		t.Fatalf("Next on a sealed frame: %q, %d, %v", p, next, err)
	}
	// A torn frame whose surviving bytes hold a run of zeros is cut, and so
	// is a tail of zeros: neither is a record.
	torn := frame(string(make([]byte, 40)))
	for _, tail := range [][]byte{torn[:30], make([]byte, HeaderLen), make([]byte, 100)} {
		var seen int
		left, end, err := recoverFile(t, append(bytes.Clone(good), tail...), true, func(off int64, p []byte) error {
			seen++
			return nil
		})
		if err != nil || end != int64(len(good)) || !bytes.Equal(left, good) || seen != 1 {
			t.Fatalf("torn tail of %d bytes: end %d, %d bytes left, %d records, %v", len(tail), end, len(left), seen, err)
		}
		// Where the caller may not cut, the same tail is an error.
		data := append(bytes.Clone(good), tail...)
		if left, _, err := recoverFile(t, data, false, ignore); err == nil || !bytes.Equal(left, data) {
			t.Fatalf("torn tail of %d bytes without truncate: %v", len(tail), err)
		}
	}
	// Zeros before a whole frame are corruption, and so is anything else
	// a whole frame follows; the file is left as it was.
	for _, data := range [][]byte{
		append(append(bytes.Clone(good), make([]byte, HeaderLen)...), good...),
		append(make([]byte, len(good)), good...),
		append(append(bytes.Clone(good), torn[:30]...), good...),
	} {
		if left, _, err := recoverFile(t, data, true, ignore); err == nil || !bytes.Equal(left, data) {
			t.Fatalf("damage before a whole frame: %v, file %d -> %d bytes", err, len(data), len(left))
		}
	}
	// An error from fn is the scan's error, and the file is untouched.
	stop := errors.New("stop")
	data := append(append(bytes.Clone(good), good...), torn[:30]...)
	left, _, err := recoverFile(t, data, true, func(off int64, _ []byte) error {
		if off > 0 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || !bytes.Equal(left, data) {
		t.Fatalf("fn failing at the second frame: %v, file %d -> %d bytes", err, len(data), len(left))
	}
}

// sweepSeeds is a small log cut at every offset, flipped at every byte and
// zero-filled the ways a crash leaves it.
func sweepSeeds() [][]byte {
	log := append(append(frame("first record"), frame(string(make([]byte, 20)))...), frame("last")...)
	last := len(log) - len(frame("last"))
	seeds := [][]byte{
		nil,
		append(bytes.Clone(log[:last]), make([]byte, len(log)-last)...),
		append(bytes.Clone(log), make([]byte, 64)...),
		append(append(bytes.Clone(log[:last]), make([]byte, HeaderLen)...), log[last:]...),
	}
	for cut := 0; cut < len(log); cut++ {
		seeds = append(seeds, bytes.Clone(log[:cut]))
	}
	for off := range log {
		flipped := bytes.Clone(log)
		flipped[off] ^= 0x40
		seeds = append(seeds, flipped)
	}
	return seeds
}

// FuzzRecover: whatever bytes a log file holds, Recover never panics and
// never allocates more than the file could hold. It either fails and
// leaves the file byte-identical, or leaves a prefix of the file whose
// frames all parse, non-empty, and were each handed to fn, and which ends
// at the first damage.
func FuzzRecover(f *testing.F) {
	for _, seed := range sweepSeeds() {
		f.Add(seed)
	}
	path := filepath.Join(f.TempDir(), "log") // inputs run one at a time
	f.Fuzz(func(t *testing.T, in []byte) {
		file := logFile(t, path, in)
		next, wrong := 0, false
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		end, err := Recover(file, 0, true, func(off int64, payload []byte) error {
			p, n, err := Next(in, next)
			if err != nil || off != int64(next) || len(p) == 0 || !bytes.Equal(p, payload) {
				wrong = true
			}
			next = n
			return nil
		})
		runtime.ReadMemStats(&ms)
		left := contents(t, file)
		// The read-ahead buffer, the payload buffer and the damaged tail
		// are each at most the file; the rest is a few small values.
		if alloc := ms.TotalAlloc - before; alloc > 3*uint64(len(in))+16<<10 {
			t.Fatalf("recovering %d bytes allocated %d", len(in), alloc)
		}
		if wrong {
			t.Fatal("fn was handed something other than the file's next frame")
		}
		if err != nil {
			if !bytes.Equal(left, in) {
				t.Fatalf("failed (%v) and changed the file: %d -> %d bytes", err, len(in), len(left))
			}
			return
		}
		if end != int64(next) || !bytes.Equal(left, in[:end]) {
			t.Fatalf("left %d bytes, end %d, frames handed to fn end at %d", len(left), end, next)
		}
		if p, _, err := Next(in, int(end)); int(end) < len(in) && err == nil && len(p) > 0 {
			t.Fatalf("stopped at %d before a whole frame", end)
		}
		if again, err := Recover(file, 0, false, ignore); err != nil || again != end {
			t.Fatalf("the recovered prefix does not recover cleanly: end %d, %v", again, err)
		}
	})
}
