package main

import (
	"bytes"
	"os"
	"testing"

	"socialchain/internal/storage/storagetest"
)

func TestMain(m *testing.M) { storagetest.Main(m) }

// TestScoresMatchGolden pins the scenario's trust scores and verdicts: they
// are a deterministic function of committed state, so a change to how the
// data contract stores or reads its cross-validation references must leave
// them byte-identical.
func TestScoresMatchGolden(t *testing.T) {
	fw, err := newFramework()
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	var got bytes.Buffer
	if err := scoreCrowd(fw, &got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/scores.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("scores differ from testdata/scores.golden:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
