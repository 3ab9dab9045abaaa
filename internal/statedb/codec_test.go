package statedb

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"socialchain/internal/storage"
)

func fixtureRWSet() RWSet {
	return RWSet{
		Reads:  []ReadItem{{Namespace: "cc", Key: "k", Version: Version{BlockNum: 300, TxNum: 1}, Exists: true}, {Namespace: "cc", Key: "absent"}},
		Writes: []WriteItem{{Namespace: "cc", Key: "k", Value: []byte("v")}, {Namespace: "cc", Key: "old", IsDelete: true}},
	}
}

// TestGoldenRWSetAndHistEntry pins the read/write-set layout and the
// digest built on it — endorsers sign it, so a layout change splits a
// deployment — and the history entry's reserved key, whose byte order is
// the commit order Get returns.
func TestGoldenRWSetAndHistEntry(t *testing.T) {
	const rwHex = "02" + "026363" + "016b" + "ac02" + "01" + "01" + "026363" + "06616273656e74" + "00" + "00" + "00" +
		"02" + "026363" + "016b" + "0176" + "00" + "026363" + "036f6c64" + "00" + "01"
	rw := fixtureRWSet()
	if got := hex.EncodeToString(rw.Bytes()); got != rwHex {
		t.Fatalf("rwset layout changed:\n got %s\nwant %s", got, rwHex)
	}
	// SHA-256 of the encoding followed by the length-prefixed response.
	if got := hex.EncodeToString(rw.Digest([]byte("ok"))); got != "b656729fea3ed866e8403c21546b848baf162850d56352ad0692e33ae28bc7ce" {
		t.Fatalf("rwset digest changed: %s", got)
	}
	back, err := DecodeRWSet(rw.Bytes())
	if err != nil || !bytes.Equal(back.Bytes(), rw.Bytes()) || !bytes.Equal(back.Digest(nil), rw.Digest(nil)) {
		t.Fatalf("rwset round trip: %+v, %v", back, err)
	}
	if bytes.Equal(rw.Digest([]byte("a")), rw.Digest([]byte("b"))) {
		t.Fatal("digest ignores the response")
	}

	// "H", namespace, NUL, key, NUL, then block 300 and tx 1 big-endian;
	// the value is one byte, 1 for a delete.
	b := NewUpdateBatch()
	b.AddRWSetWrites(fixtureRWSet())
	got := map[string]string{}
	for _, w := range HistoryWrites([]TxUpdate{{Batch: b, Version: Version{BlockNum: 300, TxNum: 1}}}) {
		got[hex.EncodeToString([]byte(w.Key))] = hex.EncodeToString(w.Value)
	}
	want := map[string]string{
		"48" + "6363" + "00" + "6b" + "00" + "000000000000012c" + "00000001":     "00",
		"48" + "6363" + "00" + "6f6c64" + "00" + "000000000000012c" + "00000001": "01",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("history entry layout changed:\n got %v\nwant %v", got, want)
	}
}

// seedsOf is an encoding, cuts of it and bit flips of it.
func seedsOf(f *testing.F, enc []byte) {
	f.Add(enc)
	for cut := 0; cut < len(enc); cut += 3 {
		f.Add(enc[:cut])
	}
	for off := 0; off < len(enc); off += 5 {
		flipped := append([]byte(nil), enc...)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}
}

func FuzzDecodeRWSet(f *testing.F) {
	seedsOf(f, fixtureRWSet().Bytes())
	seedsOf(f, RWSet{}.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		if rw, err := DecodeRWSet(in); err == nil && !bytes.Equal(rw.Bytes(), in) {
			t.Fatal("decoded without error but re-encodes differently")
		}
	})
}

// fuzzKeyPair splits a fuzz input into two distinct non-empty keys: the
// first byte is the first key's length.
func fuzzKeyPair(in []byte) (a, b string, ok bool) {
	if len(in) < 1 || int(in[0]) >= len(in) {
		return "", "", false
	}
	n := 1 + int(in[0]) // in int: 1+in[0] wraps to 0 at 0xff
	a, b = string(in[1:n]), string(in[n:])
	return a, b, a != "" && b != "" && a != b
}

// FuzzDecodeHistEntry: whatever bytes two keys hold — one extending the
// other past a NUL included — the entries Get decodes for a key are that
// key's own, in commit order, each resolved to the write its reference
// names. Key a is written at block 1 and deleted at block 3, key b
// written at block 2.
func FuzzDecodeHistEntry(f *testing.F) {
	seedsOf(f, append([]byte{1}, "aa\x00b"...))
	seedsOf(f, append([]byte{10}, "data/rec/xdata/rec/x\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"...))
	f.Fuzz(func(t *testing.T, in []byte) {
		a, b, ok := fuzzKeyPair(in)
		if !ok {
			return
		}
		db := New()
		chain := map[uint64]WriteItem{
			1: {Namespace: "cc", Key: a, Value: []byte("a1")},
			2: {Namespace: "cc", Key: b, Value: []byte("b2")},
			3: {Namespace: "cc", Key: a, IsDelete: true},
		}
		for n := uint64(1); n <= 3; n++ {
			ub := NewUpdateBatch()
			ub.AddRWSetWrites(RWSet{Writes: []WriteItem{chain[n]}})
			ups := []TxUpdate{{Batch: ub, Version: Version{BlockNum: n}}}
			db.ApplyBlockAt(ups, n, HistoryWrites(ups)...)
		}
		h := NewHistoryDB(db, func(n uint64, tx uint32) (string, time.Time, []WriteItem, error) {
			w, ok := chain[n]
			if !ok || tx != 0 {
				return "", time.Time{}, nil, fmt.Errorf("no transaction %d of block %d", tx, n)
			}
			return fmt.Sprint("tx", n), time.Unix(int64(n), 0), []WriteItem{w}, nil
		})
		for key, want := range map[string]string{a: "1:a1 3:del", b: "2:b2"} {
			var got []string
			for _, e := range mustGet(t, h, "cc", key) {
				if e.TxID != fmt.Sprint("tx", e.Version.BlockNum) || e.Timestamp.Unix() != int64(e.Version.BlockNum) {
					t.Fatalf("key %q: entry %+v resolved to another transaction", key, e)
				}
				if e.IsDelete {
					got = append(got, fmt.Sprintf("%d:del", e.Version.BlockNum))
				} else {
					got = append(got, fmt.Sprintf("%d:%s", e.Version.BlockNum, e.Value))
				}
			}
			if strings.Join(got, " ") != want {
				t.Fatalf("key %q: history %v, want %s", key, got, want)
			}
		}
	})
}

// TestDecodeEveryCut: no proper prefix of the read/write-set encoding
// decodes.
func TestDecodeEveryCut(t *testing.T) {
	rw := fixtureRWSet().Bytes()
	for cut := 0; cut < len(rw); cut++ {
		if _, err := DecodeRWSet(rw[:cut]); err == nil && cut > 0 {
			t.Fatalf("rwset cut to %d of %d bytes decoded", cut, len(rw))
		}
	}
}

// TestHistoryRefusesOlderFormat: a data directory in the three-engine
// layout — a history/ or index/ engine beside db/, what builds before the
// one-engine layout wrote — fails to open, naming the layout, and is left
// exactly as it was. A directory this build creates holds db/ only.
func TestHistoryRefusesOlderFormat(t *testing.T) {
	for _, old := range []string{"history", "index"} {
		dir := t.TempDir()
		kv, err := storage.Open(storage.Config{Engine: storage.EnginePersist, Dir: filepath.Join(dir, old)})
		if err != nil {
			t.Fatal(err)
		}
		kv.ApplyBatch([]storage.Write{{Key: "cc\x00k", Value: []byte("v")}})
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
		before := treeListing(t, dir)
		_, err = NewIndexedWith(storage.Config{Engine: storage.EnginePersist, Dir: dir}, testIndexes()...)
		if err == nil || !strings.Contains(err.Error(), "three-engine layout") || !strings.Contains(err.Error(), old+"/") {
			t.Fatalf("directory with %s/ opened: %v", old, err)
		}
		if after := treeListing(t, dir); after != before {
			t.Fatalf("refused directory was modified:\nbefore %s\n after %s", before, after)
		}
	}

	dir := t.TempDir()
	db, err := NewIndexedWith(storage.Config{Engine: storage.EnginePersist, Dir: dir}, testIndexes()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "db" {
		t.Fatalf("a fresh directory holds %v, want db/ only", entries)
	}
}

// treeListing is every file under dir with its contents, as one string.
func treeListing(t *testing.T, dir string) string {
	t.Helper()
	var out strings.Builder
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(&out, "%s:%x ", path[len(dir):], data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.String()
}
