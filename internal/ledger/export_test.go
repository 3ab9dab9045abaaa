package ledger

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestExportImportRoundTrip: an export verifies offline block for block,
// ending at the tip of the ledger it came from.
func TestExportImportRoundTrip(t *testing.T) {
	src := chainOf(t, 4, 3)
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	n, tip, err := VerifyExport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || tip != src.TipHash() {
		t.Fatalf("verified %d blocks ending at %x, want 4 ending at %x", n, tip, src.TipHash())
	}
}

// TestExportPrintsHashesAndFingerprints: the dump shows what an envelope
// records of its arguments and endorsers — hex SHA-256 hashes and hex key
// fingerprints — for single and batched envelopes, each line decodes back
// to its block byte for byte, and a hash or fingerprint of the wrong
// length in a dump fails the offline check, never reads as a shorter
// value.
func TestExportPrintsHashesAndFingerprints(t *testing.T) {
	var chain []*Block
	var prev [32]byte
	for n, calls := range []int{1, 3} {
		blk := NewBlock(uint64(n), prev, []Transaction{fixtureTx(calls)}, time.Unix(int64(n), 0))
		chain, prev = append(chain, blk), blk.Header.Hash()
	}
	src := openChain(t, "", chain...)
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	single, batch := fixtureTx(1), fixtureTx(3)
	argHash := single.Payload.ArgHashes[1].String()
	fingerprint := batch.Endorsements[2].Signer.String()
	for _, want := range []string{
		`"arg_hashes":["` + single.Payload.ArgHashes[0].String() + `","` + argHash + `"]`,
		`"arg_hashes":["` + batch.Payload.Batch[2].ArgHashes[0].String(),
		`"signer":"` + fingerprint + `"`,
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump lacks %s", want)
		}
	}
	if strings.Contains(dump, `"args"`) || strings.Contains(dump, `"endorser"`) {
		t.Fatal("dump still carries arguments or embedded endorser identities")
	}

	if n, tip, err := VerifyExport(strings.NewReader(dump)); err != nil || n != 2 || tip != src.TipHash() {
		t.Fatalf("the dump verified %d blocks ending at %x: %v", n, tip, err)
	}
	for n, line := range strings.Split(strings.TrimSuffix(dump, "\n"), "\n") {
		var b Block
		if err := json.Unmarshal([]byte(line), &b); err != nil || !bytes.Equal(b.AppendTo(nil), chain[n].AppendTo(nil)) {
			t.Fatalf("block %d differs after export (%v)", n, err)
		}
	}

	for name, bad := range map[string]string{
		"short hash":        strings.Replace(dump, argHash, argHash[:62], 1),
		"long hash":         strings.Replace(dump, argHash, argHash+"00", 1),
		"short fingerprint": strings.Replace(dump, fingerprint, fingerprint[:14], 1),
		"not hex":           strings.Replace(dump, fingerprint, "zz"+fingerprint[2:], 1),
	} {
		if _, _, err := VerifyExport(strings.NewReader(bad)); err == nil {
			t.Errorf("a dump with a %s verified", name)
		}
	}
}

func TestImportRejectsTamperedDump(t *testing.T) {
	src := chainOf(t, 2, 2)
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dump := strings.Replace(buf.String(), `"id":"tx-0"`, `"id":"tx-X"`, 1)
	if _, _, err := VerifyExport(strings.NewReader(dump)); err == nil || !strings.Contains(err.Error(), "block 0 data hash") {
		t.Fatalf("tampered dump verified: %v", err)
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, _, err := VerifyExport(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage verified")
	}
}

func TestImportEmptyStream(t *testing.T) {
	n, tip, err := VerifyExport(strings.NewReader(""))
	if err != nil || n != 0 || tip != ([32]byte{}) {
		t.Fatalf("n=%d tip=%x err=%v", n, tip, err)
	}
}

// TestImportRejectsShortFlagList: a dump line whose flag list is shorter
// than its transaction list fails the offline check; the header hash does
// not cover the flags, so nothing else would.
func TestImportRejectsShortFlagList(t *testing.T) {
	src := chainOf(t, 2, 2)
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	var b Block
	if err := json.Unmarshal([]byte(lines[1]), &b); err != nil {
		t.Fatal(err)
	}
	b.Metadata.Flags = b.Metadata.Flags[1:]
	short, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	dump := lines[0] + string(short) + "\n"
	if _, _, err := VerifyExport(strings.NewReader(dump)); err == nil || !strings.Contains(err.Error(), "block 1 has 1 flags for 2 txs") {
		t.Fatalf("a short flag list verified: %v", err)
	}
}

func TestBlocksFrom(t *testing.T) {
	l := chainOf(t, 5, 1)
	got, err := l.BlocksFrom(3, 0)
	if err != nil || len(got) != 2 || got[0].Header.Number != 3 || got[1].Header.Number != 4 {
		t.Fatalf("BlocksFrom(3, 0) = %d blocks, err %v", len(got), err)
	}
	if got, _ := l.BlocksFrom(1, 2); len(got) != 2 || got[0].Header.Number != 1 || got[1].Header.Number != 2 {
		t.Fatalf("BlocksFrom(1, 2) = %d blocks", len(got))
	}
	if got, _ := l.BlocksFrom(99, 0); len(got) != 0 {
		t.Fatal("phantom blocks")
	}
}
