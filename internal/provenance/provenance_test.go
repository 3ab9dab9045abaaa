package provenance

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/statedb"
)

func record(txID, prev, source string, seq int, payload []byte) contracts.DataRecord {
	sum := sha256.Sum256(payload)
	return contracts.DataRecord{
		TxID:      txID,
		CID:       "cid-" + txID,
		Source:    source,
		DataHash:  hex.EncodeToString(sum[:]),
		SizeBytes: len(payload),
		PrevTxID:  prev,
		Seq:       seq,
	}
}

func TestVerifyPayloadMatch(t *testing.T) {
	payload := []byte("the raw frame bytes")
	rec := record("tx1", "", "city/cam", 1, payload)
	if err := VerifyPayload(&rec, payload); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyPayloadTampered(t *testing.T) {
	payload := []byte("original")
	rec := record("tx1", "", "city/cam", 1, payload)
	err := VerifyPayload(&rec, []byte("tampered"))
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("want ErrTampered, got %v", err)
	}
}

func TestVerifyPayloadSizeMismatch(t *testing.T) {
	payload := []byte("sized")
	rec := record("tx1", "", "city/cam", 1, payload)
	rec.SizeBytes = 999
	if err := VerifyPayload(&rec, payload); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestVerifyChainValid(t *testing.T) {
	chain := []contracts.DataRecord{
		record("tx3", "tx2", "s", 3, []byte("c")),
		record("tx2", "tx1", "s", 2, []byte("b")),
		record("tx1", "", "s", 1, []byte("a")),
	}
	if err := VerifyChain(chain); err != nil {
		t.Fatal(err)
	}
	sum := Summarise(chain)
	if !sum.Valid || sum.Length != 3 || sum.Origin != "tx1" || sum.Newest != "tx3" {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestVerifyChainBrokenLink(t *testing.T) {
	chain := []contracts.DataRecord{
		record("tx3", "WRONG", "s", 3, []byte("c")),
		record("tx2", "tx1", "s", 2, []byte("b")),
		record("tx1", "", "s", 1, []byte("a")),
	}
	if err := VerifyChain(chain); err == nil {
		t.Fatal("broken link accepted")
	}
}

func TestVerifyChainMixedSources(t *testing.T) {
	chain := []contracts.DataRecord{
		record("tx2", "tx1", "s1", 2, []byte("b")),
		record("tx1", "", "s2", 1, []byte("a")),
	}
	if err := VerifyChain(chain); err == nil {
		t.Fatal("mixed sources accepted")
	}
}

func TestVerifyChainBadSeq(t *testing.T) {
	chain := []contracts.DataRecord{
		record("tx2", "tx1", "s", 5, []byte("b")),
		record("tx1", "", "s", 1, []byte("a")),
	}
	if err := VerifyChain(chain); err == nil {
		t.Fatal("bad sequence accepted")
	}
}

func TestVerifyChainDanglingTail(t *testing.T) {
	chain := []contracts.DataRecord{
		record("tx2", "tx1", "s", 2, []byte("b")),
		record("tx1", "tx0", "s", 1, []byte("a")), // seq 1 with a prev
	}
	if err := VerifyChain(chain); err == nil {
		t.Fatal("dangling tail accepted")
	}
}

func TestVerifyChainEmpty(t *testing.T) {
	if err := VerifyChain(nil); err == nil {
		t.Fatal("empty chain accepted")
	}
	if s := Summarise(nil); s.Valid {
		t.Fatal("empty summary valid")
	}
}

func buildLedger(t *testing.T, flag ledger.ValidationCode) (*ledger.Ledger, string) {
	t.Helper()
	s, err := msp.NewSigner("org", "client", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	tx := ledger.Transaction{ID: "target-tx", Creator: s.Identity, Timestamp: time.Now()}
	tx.Signature = s.Sign(tx.SigningBytes())
	other := ledger.Transaction{ID: "other-tx", Creator: s.Identity, Timestamp: time.Now()}
	other.Signature = s.Sign(other.SigningBytes())

	blk := ledger.NewBlock(0, [32]byte{}, []ledger.Transaction{other, tx}, time.Now())
	blk.Metadata.Flags[1] = flag
	db := statedb.New()
	l, err := ledger.Open("", db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		l.Close()
		db.Close()
	})
	// Commit as a peer does: Stage, the state batch carrying the ledger's
	// index entries, Append.
	index, err := l.Stage(blk)
	if err != nil {
		t.Fatal(err)
	}
	db.ApplyBlockAt(nil, 0, index...)
	if err := l.Append(blk); err != nil {
		t.Fatal(err)
	}
	return l, "target-tx"
}

func TestVerifyInclusionValid(t *testing.T) {
	l, txID := buildLedger(t, ledger.Valid)
	if err := VerifyInclusion(l, txID); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyInclusionInvalidFlag(t *testing.T) {
	l, txID := buildLedger(t, ledger.MVCCConflict)
	if err := VerifyInclusion(l, txID); err == nil {
		t.Fatal("invalid tx passed inclusion check")
	}
}

func TestVerifyInclusionUnknownTx(t *testing.T) {
	l, _ := buildLedger(t, ledger.Valid)
	if err := VerifyInclusion(l, "ghost"); err == nil {
		t.Fatal("unknown tx passed")
	}
}
