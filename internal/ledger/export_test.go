package ledger

import (
	"bytes"
	"strings"
	"testing"
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
