package statedb

import (
	"bytes"
	"encoding/hex"
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

func fixtureHistEntry() HistEntry {
	return HistEntry{TxID: "tx1", Value: []byte("v"), Version: Version{BlockNum: 300, TxNum: 1}, Timestamp: time.Unix(1, 2)}
}

// TestGoldenRWSetAndHistEntry pins both layouts and the digest built on
// the first: endorsers sign it, so a layout change splits a deployment.
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

	const histHex = "03747831" + "0176" + "00" + "ac02" + "01" + "000000003b9aca02"
	e := fixtureHistEntry()
	if got := hex.EncodeToString(e.AppendTo(nil)); got != histHex {
		t.Fatalf("history entry layout changed:\n got %s\nwant %s", got, histHex)
	}
	got, err := DecodeHistEntry(e.AppendTo(nil))
	if err != nil || got.TxID != e.TxID || !bytes.Equal(got.Value, e.Value) || got.Version != e.Version || !got.Timestamp.Equal(e.Timestamp) {
		t.Fatalf("history entry round trip: %+v, %v", got, err)
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

func FuzzDecodeHistEntry(f *testing.F) {
	seedsOf(f, fixtureHistEntry().AppendTo(nil))
	seedsOf(f, HistEntry{IsDelete: true}.AppendTo(nil))
	f.Fuzz(func(t *testing.T, in []byte) {
		if e, err := DecodeHistEntry(in); err == nil && !bytes.Equal(e.AppendTo(nil), in) {
			t.Fatal("decoded without error but re-encodes differently")
		}
	})
}

// TestDecodeEveryCut: no proper prefix of either encoding decodes.
func TestDecodeEveryCut(t *testing.T) {
	rw, e := fixtureRWSet().Bytes(), fixtureHistEntry().AppendTo(nil)
	for cut := 0; cut < len(rw); cut++ {
		if _, err := DecodeRWSet(rw[:cut]); err == nil && cut > 0 {
			t.Fatalf("rwset cut to %d of %d bytes decoded", cut, len(rw))
		}
	}
	for cut := 0; cut < len(e); cut++ {
		if _, err := DecodeHistEntry(e[:cut]); err == nil {
			t.Fatalf("history entry cut to %d of %d bytes decoded", cut, len(e))
		}
	}
}

// TestHistoryRefusesOlderFormat: a durable history store holding entries
// but no format marker — every store written before the binary entries,
// whose values were JSON — fails to open, and its entries stay readable by
// the build that wrote them.
func TestHistoryRefusesOlderFormat(t *testing.T) {
	cfg := storage.Config{Engine: storage.EnginePersist, Dir: t.TempDir()}
	const key, old = "cc\x00k\x0000000000000000010000000000000000", `{"tx_id":"tx1","value":"dg==","version":{"block_num":1,"tx_num":0},"timestamp":"2026-01-01T00:00:00Z"}`
	kv, err := storage.Open(cfg.Sub("history"))
	if err != nil {
		t.Fatal(err)
	}
	kv.Put(key, []byte(old))
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHistoryDBWith(cfg); err == nil || !strings.Contains(err.Error(), "older build") {
		t.Fatalf("history store of JSON entries opened: %v", err)
	}
	kv, err = storage.Open(cfg.Sub("history"))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if v, ok := kv.Get(key); !ok || string(v) != old || kv.Len() != 1 {
		t.Fatalf("refused store was modified: %q, %d keys", v, kv.Len())
	}

	// A store this build created reopens, marker and entries intact.
	fresh := storage.Config{Engine: storage.EnginePersist, Dir: t.TempDir()}
	for i := 0; i < 2; i++ {
		h, err := NewHistoryDBWith(fresh)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if i == 0 {
			h.Record("cc", "k", fixtureHistEntry())
		}
		if got := h.Get("cc", "k"); len(got) != 1 || got[0].TxID != "tx1" || h.Len("cc") != 1 {
			t.Fatalf("open %d: history %+v", i, got)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
