package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"socialchain/internal/codec/codectest"
	"socialchain/internal/walframe"
)

// writeManifestPayload replaces dir's manifest with one framing payload.
func writeManifestPayload(t *testing.T, dir string, payload []byte) {
	t.Helper()
	frame := append(make([]byte, walframe.HeaderLen), payload...)
	walframe.Seal(frame)
	if err := os.WriteFile(manifestPath(dir), frame, 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirImage maps every file in dir to its bytes.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	image := map[string]string{}
	for _, name := range dirFiles(t, dir, "", "") {
		image[name] = string(readFile(t, filepath.Join(dir, name)))
	}
	return image
}

// oldManifest is m as an older build wrote it: magic LSM2 and the lowest
// live WAL after the file number, or LSM1 and a live-key count after that.
func oldManifest(magic string, m manifestData) []byte {
	fields := []uint64{m.nextFile, 12}
	if magic == "LSM1" {
		fields = append(fields, 4096)
	}
	payload := []byte(magic)
	for _, v := range append(fields, uint64(len(m.levels))) {
		payload = binary.AppendUvarint(payload, v)
	}
	for _, lvl := range m.levels {
		payload = binary.AppendUvarint(payload, uint64(len(lvl)))
		for _, fileNo := range lvl {
			payload = binary.AppendUvarint(payload, fileNo)
		}
	}
	return payload
}

// TestLSMRefusesOldManifest: a directory whose manifest an older build
// wrote (format LSM1 or LSM2) fails to open with an error naming the
// format, and so does one an older build's engine wrote but never flushed
// (its write-ahead log alone); each is left byte-identical — a stray
// manifest temp file included.
func TestLSMRefusesOldManifest(t *testing.T) {
	refuses := func(dir, what, want string) {
		t.Helper()
		if err := os.WriteFile(manifestPath(dir)+".tmp", []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirImage(t, dir)
		p, err := OpenPersist(Config{Dir: dir})
		if err == nil {
			p.Close()
			t.Fatalf("%s opened", what)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not say %q", what, err, want)
		}
		if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: the refused open changed the directory", what)
		}
	}
	for _, magic := range []string{"LSM1", "LSM2"} {
		dir := t.TempDir()
		buildTabled(t, dir)
		m, ok, err := readManifest(dir)
		if err != nil || !ok {
			t.Fatalf("manifest: ok=%v err=%v", ok, err)
		}
		writeManifestPayload(t, dir, oldManifest(magic, m))
		refuses(dir, "an "+magic+" manifest", "is in format "+magic+", written by an older build")
	}
	dir := t.TempDir()
	wal := fmt.Sprintf("%s%016x%s", walPrefix, 1, walSuffix)
	if err := os.WriteFile(filepath.Join(dir, wal), appendFrontRecord(nil, []Write{{Key: "k", Value: []byte("v")}}), 0o644); err != nil {
		t.Fatal(err)
	}
	refuses(dir, "an older build's unflushed engine", "the write-ahead log an older build wrote; no migration")
}

// TestLSMManifestCountsBoundedByPayload: a CRC-valid manifest whose level
// or table count the payload cannot hold is corrupt, refused before
// anything is allocated for it.
func TestLSMManifestCountsBoundedByPayload(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, payload := range map[string][]byte{
		"levels": append([]byte(manifestMagic+"\x01"), huge...),
		"tables": append([]byte(manifestMagic+"\x01\x01"), huge...),
	} {
		dir := t.TempDir()
		writeManifestPayload(t, dir, payload)
		p, err := OpenPersist(Config{Dir: dir})
		if err == nil {
			p.Close()
			t.Fatalf("%s: a manifest counting 2^40 entries in %d bytes opened", name, len(payload))
		}
		if !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("%s: error %q does not call the manifest corrupt", name, err)
		}
	}
}

// FuzzManifest holds the manifest payload's decoder to the invariant of
// every decoder here: for any bytes it fails, or what it returns encodes
// back to exactly the input — never a panic, and never an allocation a
// count asks for that the bytes cannot hold.
func FuzzManifest(f *testing.F) {
	for _, seed := range manifestSeeds() {
		f.Add(seed[0].([]byte))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := decodeManifest(in)
		if err != nil {
			return
		}
		if out := encodeManifest(m); !bytes.Equal(out, in) {
			t.Fatalf("decoded %+v re-encodes to %x, not the input %x", m, out, in)
		}
	})
}

// manifestSeeds are FuzzManifest's committed seeds: a manifest with an
// empty level between two full ones, cut and flipped copies of it, and
// the same manifest as older builds wrote it, whole, cut and flipped.
func manifestSeeds() map[string][]any {
	m := manifestData{nextFile: 300, levels: [][]uint64{{299, 297}, {}, {250, 128, 7}}}
	seeds := map[string][]any{"lsm1": {oldManifest("LSM1", m)}}
	for name, payload := range map[string][]byte{"lsm3": encodeManifest(m), "lsm2": oldManifest("LSM2", m)} {
		flip := append([]byte(nil), payload...)
		flip[len(flip)/2] ^= 0x10
		seeds[name] = []any{payload}
		seeds[name+"-cut"] = []any{payload[:len(payload)-2]}
		seeds[name+"-flip"] = []any{flip}
	}
	return seeds
}

// TestManifestFuzzCorpusCurrent: the committed seeds are this format's
// encodings of their fixtures.
func TestManifestFuzzCorpusCurrent(t *testing.T) {
	codectest.Corpus(t, "FuzzManifest", manifestSeeds())
}
