package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"socialchain/internal/cid"
	"socialchain/internal/storage"
	"socialchain/internal/walframe"
)

// newStore opens a store on a temporary file, closed with the test.
func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func openDir(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	m := newStore(t)
	b := NewBlock([]byte("hello"))
	if err := m.Put(b); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get(b.Cid())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data(), b.Data()) {
		t.Fatal("data mismatch")
	}
	if !m.Has(b.Cid()) {
		t.Fatal("Has false after Put")
	}
}

func TestGetMissing(t *testing.T) {
	m := newStore(t)
	_, err := m.Get(cid.SumRaw([]byte("absent")))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

// TestPutRejectsCorruptBlock: bytes that do not hash to the CID they are
// offered under never become a Block, so they cannot reach the log; nor
// can the zero Block.
func TestPutRejectsCorruptBlock(t *testing.T) {
	m := newStore(t)
	c := NewBlock([]byte("data")).Cid()
	if _, err := Check(c, []byte("tampered")); err == nil {
		t.Fatal("tampered bytes accepted as a block")
	}
	if _, err := Check(cid.Undef, []byte("x")); err == nil {
		t.Fatal("undefined cid accepted")
	}
	dag := NewDagBlock([]byte("node"))
	if b, err := Check(dag.Cid(), []byte("node")); err != nil || !b.Cid().Equals(dag.Cid()) {
		t.Fatalf("dag block rejected: %v", err)
	}
	if _, err := Check(dag.Cid(), []byte("edon")); err == nil {
		t.Fatal("tampered dag node accepted")
	}
	if err := m.Put(Block{}); err == nil {
		t.Fatal("zero block accepted")
	}
	if m.Len() != 0 || m.SizeBytes() != 0 {
		t.Fatalf("rejected blocks reached the store: Len %d, %d log bytes", m.Len(), m.SizeBytes())
	}
}

func TestPutIdempotent(t *testing.T) {
	m := newStore(t)
	b := NewBlock([]byte("once"))
	if err := m.Put(b); err != nil {
		t.Fatal(err)
	}
	size := m.SizeBytes()
	if err := m.Put(b); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Put", m.Len())
	}
	if m.SizeBytes() != size {
		t.Fatalf("log grew %d → %d on a duplicate Put", size, m.SizeBytes())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	m := newStore(t)
	b := NewBlock([]byte("immutable"))
	if err := m.Put(b); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Get(b.Cid())
	got.Data()[0] = 'X'
	again, _ := m.Get(b.Cid())
	if again.Data()[0] == 'X' {
		t.Fatal("internal buffer aliased to caller")
	}
}

func TestPropertyPutGet(t *testing.T) {
	m := newStore(t)
	err := quick.Check(func(data []byte) bool {
		b := NewBlock(data)
		if err := m.Put(b); err != nil {
			return false
		}
		got, err := m.Get(b.Cid())
		return err == nil && bytes.Equal(got.Data(), data)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// putBlocks stores n distinct blocks of about size bytes.
func putBlocks(t *testing.T, s *Store, seed, n, size int) []Block {
	t.Helper()
	var out []Block
	for i := 0; i < n; i++ {
		b := NewBlock(bytes.Repeat([]byte{byte(seed), byte(i)}, size/2+i))
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestReopenReadsNoBlock: opening a durable store of N blocks reads no
// block — after a clean stop the log holds nothing past the savepoint, so
// its index engine takes no write and reads one table block, the
// savepoint's — and every block reads back after it.
func TestReopenReadsNoBlock(t *testing.T) {
	dir := t.TempDir()
	m := openDir(t, dir)
	blocks := putBlocks(t, m, 1, 200, 100)
	size := m.SizeBytes()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m = openDir(t, dir)
	defer m.Close()
	st := m.kv.Stats()
	if st.SSTables == 0 || st.BlockReads != 1 || st.MemtableBytes != 0 {
		t.Fatalf("open of %d blocks in %d tables read %d table blocks and wrote %d memtable bytes, want 1 and 0",
			len(blocks), st.SSTables, st.BlockReads, st.MemtableBytes)
	}
	if m.Len() != len(blocks) || m.SizeBytes() != size {
		t.Fatalf("reopened Len/SizeBytes = %d/%d, want %d/%d", m.Len(), m.SizeBytes(), len(blocks), size)
	}
	for _, b := range blocks {
		got, err := m.Get(b.Cid())
		if err != nil || !bytes.Equal(got.Data(), b.Data()) {
			t.Fatalf("block %s after reopen: %v", b.Cid(), err)
		}
	}
}

// TestStoreLayout: a durable store is blocks.log and db/, and each block's
// bytes are in the log once.
func TestStoreLayout(t *testing.T) {
	dir := t.TempDir()
	m := openDir(t, dir)
	blocks := putBlocks(t, m, 2, 8, 4096)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := listing(t, dir, false); got != "blocks.log db" {
		t.Fatalf("store directory holds %q, want blocks.log and db", got)
	}
	log, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if n := bytes.Count(log, b.Data()); n != 1 {
			t.Fatalf("block %s is in the log %d times", b.Cid(), n)
		}
	}
}

// copyTree copies every file under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// listing names every entry under dir; with contents it adds every file's
// bytes, so two listings are equal only for byte-identical trees.
func listing(t *testing.T, dir string, contents bool) string {
	t.Helper()
	var parts []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if !contents && strings.ContainsRune(rel, filepath.Separator) {
			return nil
		}
		parts = append(parts, rel)
		if contents && !d.IsDir() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			parts = append(parts, string(data))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(parts, " ")
}

// killedAfterAppend builds the directory a store leaves when the process
// dies between appending the last block's frame and indexing it: the index
// as it stood before the last Put, the log as it stood after. It returns
// the directory, the blocks indexed before, the last block and where its
// frame starts.
func killedAfterAppend(t *testing.T, last int) (dir string, before []Block, lastBlock Block, start int64) {
	t.Helper()
	live := t.TempDir()
	s := openDir(t, live)
	before = putBlocks(t, s, 3, 4, 64)
	dir = t.TempDir()
	copyTree(t, live, dir) // kill -9 here: the log holds every block, the index none
	start = int64(s.SizeBytes())
	lastBlock = putBlocks(t, s, 4, last+1, 64)[last]
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(live, logName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, before, lastBlock, start
}

// TestStoreLastFrameCutFlippedOrZeroed: the process died after appending a
// block's frame and before indexing it, and the frame is then cut, flipped
// or zeroed at every offset. Each reopen holds the block whole or not at
// all — never wrong bytes — keeps every earlier block, and takes the block
// again afterwards.
func TestStoreLastFrameCutFlippedOrZeroed(t *testing.T) {
	killed, before, last, start := killedAfterAppend(t, 0)
	log, err := os.ReadFile(filepath.Join(killed, logName))
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(t.TempDir(), "node")
	try := func(what string, damaged []byte) {
		t.Helper()
		if err := os.RemoveAll(work); err != nil {
			t.Fatal(err)
		}
		copyTree(t, killed, work)
		if err := os.WriteFile(filepath.Join(work, logName), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(work)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer s.Close()
		for _, b := range before {
			if got, err := s.Get(b.Cid()); err != nil || !bytes.Equal(got.Data(), b.Data()) {
				t.Fatalf("%s: earlier block %s lost: %v", what, b.Cid(), err)
			}
		}
		got, err := s.Get(last.Cid())
		switch {
		case err == nil && !bytes.Equal(got.Data(), last.Data()):
			t.Fatalf("%s: the last block reads back wrong bytes", what)
		case err != nil && !errors.Is(err, ErrNotFound):
			t.Fatalf("%s: %v", what, err)
		case err != nil && s.Has(last.Cid()):
			t.Fatalf("%s: Has the last block, Get does not", what)
		}
		if err := s.Put(last); err != nil {
			t.Fatalf("%s: put after recovery: %v", what, err)
		}
		if got, err := s.Get(last.Cid()); err != nil || !bytes.Equal(got.Data(), last.Data()) {
			t.Fatalf("%s: put after recovery reads back %v", what, err)
		}
	}
	try("intact", log)
	for off := int(start); off < len(log); off++ {
		try("cut", log[:off])
		flipped := bytes.Clone(log)
		flipped[off] ^= 0x40
		try("flip", flipped)
		zeroed := bytes.Clone(log)
		clear(zeroed[off:])
		try("zero", zeroed)
	}
}

// TestStoreIndexesFramesPastSavepoint: frames appended after the index's
// last batch are whole blocks; open indexes them and moves the savepoint
// past them.
func TestStoreIndexesFramesPastSavepoint(t *testing.T) {
	dir, before, last, start := killedAfterAppend(t, 2)
	s := openDir(t, dir)
	if s.Len() != len(before)+3 || !s.Has(last.Cid()) {
		t.Fatalf("reopened with %d blocks (has the last: %v), want %d", s.Len(), s.Has(last.Cid()), len(before)+3)
	}
	if got, err := s.Get(last.Cid()); err != nil || !bytes.Equal(got.Data(), last.Data()) {
		t.Fatalf("frame past the savepoint reads back %v", err)
	}
	end := s.SizeBytes()
	if v, ok := s.kv.Get(endKey); !ok || int64(end) <= start || string(v) != string(s.savepoint().Value) {
		t.Fatalf("savepoint %x after open, want the log end %d", v, end)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openDir(t, dir)
	defer s.Close()
	if s.Len() != len(before)+3 || s.SizeBytes() != end {
		t.Fatalf("second reopen: %d blocks, %d log bytes; want %d, %d", s.Len(), s.SizeBytes(), len(before)+3, end)
	}
}

// TestStoreRefusesSavepointPastLogEnd: a log shorter than its index's
// savepoint lost blocks the index names; the store refuses to open and
// leaves the directory as it was.
func TestStoreRefusesSavepointPastLogEnd(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	putBlocks(t, s, 5, 3, 64)
	size := s.SizeBytes()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{int64(size) - 1, int64(size) / 2, 0} {
		if err := os.Truncate(filepath.Join(dir, logName), cut); err != nil {
			t.Fatal(err)
		}
		before := listing(t, dir, true)
		if _, err := Open(dir); !errors.Is(err, walframe.ErrLost) {
			t.Fatalf("log cut to %d of %d bytes: open returned %v, want ErrLost", cut, size, err)
		}
		if listing(t, dir, true) != before {
			t.Fatalf("log cut to %d: refused directory was modified", cut)
		}
	}
}

// TestStoreRefusesMissingLog: a deleted log under an index that names its
// blocks is refused with ErrLost, and the directory is left as it was,
// with no empty log created in the deleted one's place.
func TestStoreRefusesMissingLog(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	putBlocks(t, s, 7, 3, 64)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, logName)); err != nil {
		t.Fatal(err)
	}
	before := listing(t, dir, true)
	for try := 0; try < 2; try++ {
		if _, err := Open(dir); !errors.Is(err, walframe.ErrLost) {
			t.Fatalf("open over a deleted log returned %v, want ErrLost", err)
		}
		if _, err := os.Stat(filepath.Join(dir, logName)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("refused open left a log behind: %v", err)
		}
		if listing(t, dir, true) != before {
			t.Fatal("refused directory was modified")
		}
	}
}

// TestStoreRefusesOldLayout: a node directory in the blocks/+pins/ layout
// older builds wrote is refused and left byte-identical.
func TestStoreRefusesOldLayout(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"blocks", "pins"} {
		kv, err := storage.Open(storage.Config{Dir: filepath.Join(dir, sub)})
		if err != nil {
			t.Fatal(err)
		}
		kv.ApplyBatch([]storage.Write{{Key: string(NewBlock([]byte(sub)).Cid().Bytes()), Value: []byte(sub)}})
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	before := listing(t, dir, true)
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "blocks/+pins/ layout") {
		t.Fatalf("old layout opened: %v", err)
	}
	if listing(t, dir, true) != before {
		t.Fatal("refused directory was modified")
	}
}

// TestGetNeverServesWrongBytes: an indexed frame damaged on disk — one
// byte flipped, or a CRC-valid frame of another block in its place — makes
// Get panic rather than return bytes that are not the block.
func TestGetNeverServesWrongBytes(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	blocks := putBlocks(t, s, 6, 2, 64)
	blocks = append(blocks, NewBlock(bytes.Repeat([]byte{7}, len(blocks[1].Data()))))
	if err := s.Put(blocks[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := walframe.HeaderLen + 1 + len(blocks[1].Cid().Bytes()) + len(blocks[1].Data()) // the last two frames' length
	for _, c := range []struct {
		name   string
		damage func(log []byte)
	}{
		{"flipped", func(log []byte) { log[len(log)-frame-1] ^= 1 }},
		{"swapped", func(log []byte) {
			a, b := log[len(log)-2*frame:len(log)-frame], log[len(log)-frame:]
			tmp := bytes.Clone(a)
			copy(a, b)
			copy(b, tmp)
		}},
	} {
		log := bytes.Clone(intact)
		c.damage(log)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openDir(t, dir)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s frame: Get returned instead of panicking", c.name)
				}
			}()
			s.Get(blocks[1].Cid())
		}()
		s.Close()
	}
}

// TestGetAfterClose: a closed store answers Get with an error.
func TestGetAfterClose(t *testing.T) {
	s := newStore(t)
	b := NewBlock([]byte("closed"))
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(b.Cid()); err == nil {
		t.Fatal("Get after Close succeeded")
	}
}

// killCopy copies a running store's directory the way kill -9 leaves it:
// the index engine's files first, again until its manifest held still
// across the copy (a flush or compaction in flight replaces tables under
// it), then the log, which only grows.
func killCopy(t *testing.T, src, dst string) {
	t.Helper()
	manifest := filepath.Join(src, dbName, "MANIFEST")
	for {
		before, _ := os.ReadFile(manifest)
		if err := os.RemoveAll(dst); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dst, dbName), 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(filepath.Join(src, dbName))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src, dbName, e.Name()))
			if errors.Is(err, fs.ErrNotExist) {
				continue // replaced under the copy: the manifest check tells
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, dbName, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if after, _ := os.ReadFile(manifest); bytes.Equal(before, after) {
			break
		}
	}
	log, err := os.ReadFile(filepath.Join(src, logName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, logName), log, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStorePowerLossUnderEachDurability: under each durability mode (set
// the way a deployment sets it, through storage.DurabilityEnvVar) a
// running store's directory, its index holding unflushed entries, is
// copied and its log cut back the way a power loss can leave it — to any
// offset from the savepoint the index's tables name up to the file's end.
// The index fsyncs the log before it publishes a table, so its last fsync
// covered at least that savepoint; under always every Put fsyncs its
// frame, so the whole file survives. Each copy opens, never refuses, and
// holds exactly the blocks whose frames survived. The log fsyncs as the
// mode says: once per Put under always, only from the index's flushes
// under none.
func TestStorePowerLossUnderEachDurability(t *testing.T) {
	for _, mode := range []storage.Durability{storage.DurabilityNone, storage.DurabilityBatch, storage.DurabilityAlways} {
		t.Run(string(mode), func(t *testing.T) {
			t.Setenv(storage.DurabilityEnvVar, string(mode))
			live, killed := t.TempDir(), t.TempDir()
			s := openDir(t, live)
			blocks := putBlocks(t, s, 6, 450, 32)
			for deadline := time.Now().Add(10 * time.Second); s.kv.Stats().Flushes == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond) // the flush the puts made due
			}
			killCopy(t, live, killed)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			st, fsyncs := s.kv.Stats(), s.log.Fsyncs()
			switch {
			case st.Flushes < 2: // one of them Close's
				t.Fatal("test setup: the index never flushed before Close")
			case mode == storage.DurabilityAlways && fsyncs < int64(len(blocks)):
				t.Fatalf("always: %d log fsyncs for %d blocks", fsyncs, len(blocks))
			case mode == storage.DurabilityNone && (fsyncs == 0 || fsyncs > st.WALFsyncs):
				t.Fatalf("none: %d log fsyncs beside %d the index's flushes asked for", fsyncs, st.WALFsyncs)
			}

			kv, err := storage.Open(storage.Config{Dir: filepath.Join(killed, dbName)})
			if err != nil {
				t.Fatal(err)
			}
			v, ok := kv.Get(endKey)
			kv.Close()
			if !ok {
				t.Fatal("test setup: the killed copy's index holds no savepoint")
			}
			log, err := os.ReadFile(filepath.Join(killed, logName))
			if err != nil {
				t.Fatal(err)
			}
			// Block i's frame is log[starts[i]:ends[i]].
			var starts, ends []int
			for off := 0; off < len(log); {
				_, next, err := walframe.Next(log, off)
				if err != nil {
					t.Fatal(err)
				}
				starts, ends, off = append(starts, off), append(ends, next), next
			}
			cuts := []int{len(log)}
			if mode != storage.DurabilityAlways {
				sp := int(binary.BigEndian.Uint64(v))
				cuts = []int{sp}
				for i := range ends {
					if starts[i] >= sp {
						cuts = append(cuts, (starts[i]+ends[i])/2, ends[i])
					}
				}
			}
			work := filepath.Join(t.TempDir(), "node")
			for _, cut := range cuts {
				if err := os.RemoveAll(work); err != nil {
					t.Fatal(err)
				}
				copyTree(t, killed, work)
				if err := os.Truncate(filepath.Join(work, logName), int64(cut)); err != nil {
					t.Fatal(err)
				}
				re, err := Open(work)
				if err != nil {
					t.Fatalf("log cut to %d of %d bytes: %v", cut, len(log), err)
				}
				for i, b := range blocks {
					got, err := re.Get(b.Cid())
					if survived := ends[i] <= cut; survived != (err == nil) || err == nil && !bytes.Equal(got.Data(), b.Data()) {
						t.Fatalf("log cut to %d: block %d (frame ends at %d) reads %v", cut, i, ends[i], err)
					}
				}
				re.Close()
			}
			t.Logf("%d flushes; %d cuts of %d log bytes", st.Flushes, len(cuts), len(log))
		})
	}
}
