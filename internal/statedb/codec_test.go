package statedb

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"socialchain/internal/storage"
)

func fixtureRWSet() RWSet {
	return RWSet{
		Reads:  []ReadItem{{Namespace: "cc", Key: "k", Version: Version{BlockNum: 300, TxNum: 1}, Exists: true}, {Namespace: "cc", Key: "absent"}},
		Writes: []WriteItem{{Namespace: "cc", Key: "k", Value: []byte("v")}, {Namespace: "cc", Key: "old", IsDelete: true}},
	}
}

// TestGoldenRWSet pins the read/write-set layout and the digest built on
// it: endorsers sign it, so a layout change splits a deployment.
func TestGoldenRWSet(t *testing.T) {
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
		kv, err := storage.Open(storage.Config{Dir: filepath.Join(dir, old)})
		if err != nil {
			t.Fatal(err)
		}
		kv.ApplyBatch([]storage.Write{{Key: "cc\x00k", Value: []byte("v")}})
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
		before := treeListing(t, dir)
		_, err = NewIndexedWith(storage.Config{Dir: dir}, testIndexes()...)
		if err == nil || !strings.Contains(err.Error(), "three-engine layout") || !strings.Contains(err.Error(), old+"/") {
			t.Fatalf("directory with %s/ opened: %v", old, err)
		}
		if after := treeListing(t, dir); after != before {
			t.Fatalf("refused directory was modified:\nbefore %s\n after %s", before, after)
		}
	}

	dir := t.TempDir()
	db, err := NewIndexedWith(storage.Config{Dir: dir}, testIndexes()...)
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
