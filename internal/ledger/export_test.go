package ledger

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestExportImportRoundTrip(t *testing.T) {
	src := chainOf(t, 4, 3)
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New()
	n, err := dst.Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("imported %d blocks", n)
	}
	if dst.Height() != src.Height() || dst.TipHash() != src.TipHash() {
		t.Fatal("import diverged from source")
	}
	if err := dst.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	// Tx index rebuilt.
	if _, _, _, err := dst.GetTx("tx-5"); err != nil {
		t.Fatalf("tx lookup after import: %v", err)
	}
}

// TestExportPrintsHashesAndFingerprints: the dump shows what an envelope
// records of its arguments and endorsers — hex SHA-256 hashes and hex key
// fingerprints — for single and batched envelopes, a re-import reproduces
// every block byte for byte, and a hash or fingerprint of the wrong length
// in a dump is an import error, never a shorter value.
func TestExportPrintsHashesAndFingerprints(t *testing.T) {
	src := New()
	for n, calls := range []int{1, 3} {
		blk := NewBlock(uint64(n), src.TipHash(), []Transaction{fixtureTx(calls)}, time.Unix(int64(n), 0))
		if err := src.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
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

	dst := New()
	if _, err := dst.Import(strings.NewReader(dump)); err != nil {
		t.Fatal(err)
	}
	for n := uint64(0); n < 2; n++ {
		a, _ := src.GetBlock(n)
		b, err := dst.GetBlock(n)
		if err != nil || !bytes.Equal(a.AppendTo(nil), b.AppendTo(nil)) {
			t.Fatalf("block %d differs after export and import (%v)", n, err)
		}
	}

	for name, bad := range map[string]string{
		"short hash":        strings.Replace(dump, argHash, argHash[:62], 1),
		"long hash":         strings.Replace(dump, argHash, argHash+"00", 1),
		"short fingerprint": strings.Replace(dump, fingerprint, fingerprint[:14], 1),
		"not hex":           strings.Replace(dump, fingerprint, "zz"+fingerprint[2:], 1),
	} {
		if _, err := New().Import(strings.NewReader(bad)); err == nil {
			t.Errorf("a dump with a %s imported", name)
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
	dst := New()
	if _, err := dst.Import(strings.NewReader(dump)); err == nil {
		t.Fatal("tampered dump imported")
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	dst := New()
	if _, err := dst.Import(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage imported")
	}
}

func TestImportEmptyStream(t *testing.T) {
	dst := New()
	n, err := dst.Import(strings.NewReader(""))
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
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
