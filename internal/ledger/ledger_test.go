package ledger

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"socialchain/internal/msp"
	"socialchain/internal/statedb"
)

func testTx(t *testing.T, id string) Transaction {
	t.Helper()
	s, err := msp.NewSigner("org", "client", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	tx := Transaction{
		ID:      id,
		Creator: s.Identity,
		Payload: TxPayload{Chaincode: "cc", Fn: "put", ArgHashes: HashArgs([][]byte{[]byte("k"), []byte("v")})},
		RWSet: statedb.RWSet{
			Writes: []statedb.WriteItem{{Namespace: "cc", Key: "k", Value: []byte("v")}},
		},
		Timestamp: time.Now(),
	}
	tx.Signature = s.Sign(tx.SigningBytes())
	return tx
}

// openChain opens a ledger on the block log at path ("" for an unlinked
// temporary one) over a fresh in-memory world state, commits chain through
// commitLogged, and closes both when the test ends.
func openChain(t *testing.T, path string, chain ...*Block) *Ledger {
	t.Helper()
	db := statedb.New()
	l, err := Open(path, db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		l.Close()
		db.Close()
	})
	for _, b := range chain {
		commitLogged(t, l, b)
	}
	return l
}

// chainOf commits nBlocks blocks of txPerBlock transactions, tx-0 onwards.
func chainOf(t *testing.T, nBlocks, txPerBlock int) *Ledger {
	t.Helper()
	l := openChain(t, "")
	seq := 0
	for b := 0; b < nBlocks; b++ {
		var txs []Transaction
		for i := 0; i < txPerBlock; i++ {
			txs = append(txs, testTx(t, fmt.Sprintf("tx-%d", seq)))
			seq++
		}
		commitLogged(t, l, NewBlock(uint64(b), l.TipHash(), txs, time.Now()))
	}
	return l
}

func TestAppendAndHeight(t *testing.T) {
	l := chainOf(t, 3, 2)
	if l.Height() != 3 {
		t.Fatalf("height = %d", l.Height())
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRejectsWrongNumber(t *testing.T) {
	l := chainOf(t, 1, 1)
	blk := NewBlock(5, l.TipHash(), nil, time.Now())
	if _, err := l.Stage(blk); err == nil {
		t.Fatal("wrong block number accepted")
	}
}

func TestAppendRejectsWrongPrevHash(t *testing.T) {
	l := chainOf(t, 1, 1)
	blk := NewBlock(1, [32]byte{0xde, 0xad}, nil, time.Now())
	if _, err := l.Stage(blk); err == nil {
		t.Fatal("wrong prev hash accepted")
	}
}

func TestAppendRejectsTamperedData(t *testing.T) {
	l := chainOf(t, 1, 1)
	txs := []Transaction{testTx(t, "tampered")}
	blk := NewBlock(1, l.TipHash(), txs, time.Now())
	blk.Txs[0].Response = []byte("changed-after-hashing")
	if _, err := l.Stage(blk); err == nil {
		t.Fatal("tampered block data accepted")
	}
}

func TestAppendRejectsFlagMismatch(t *testing.T) {
	l := chainOf(t, 1, 1)
	txs := []Transaction{testTx(t, "x")}
	blk := NewBlock(1, l.TipHash(), txs, time.Now())
	blk.Metadata.Flags = nil
	if _, err := l.Stage(blk); err == nil {
		t.Fatal("flag/tx count mismatch accepted")
	}
	if err := l.Append(blk); err == nil {
		t.Fatal("appended a block that was not staged")
	}
}

func TestGetTx(t *testing.T) {
	l := chainOf(t, 3, 4)
	tx, flag, blockNum, err := l.GetTx("tx-7")
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID != "tx-7" || flag != Valid || blockNum != 1 {
		t.Fatalf("tx=%s flag=%s block=%d", tx.ID, flag, blockNum)
	}
	if _, _, _, err := l.GetTx("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if !l.HasTx("tx-0") || l.HasTx("ghost") {
		t.Fatal("HasTx wrong")
	}
}

func TestGetBlockOutOfRange(t *testing.T) {
	l := chainOf(t, 2, 1)
	if _, err := l.GetBlock(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestVerifyChainDetectsTamper(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blocks.wal")
	var chain []*Block
	var prev [32]byte
	for n := 0; n < 4; n++ {
		b := NewBlock(uint64(n), prev, []Transaction{testTx(t, fmt.Sprintf("tx-%d", n))}, time.Now())
		chain, prev = append(chain, b), b.Header.Hash()
	}
	loggedFixture(t, dir, chain, false)
	// Rewrite a committed transaction on disk, CRC and offsets kept
	// consistent: only the data hash can tell.
	db := openIndexDB(t, dir)
	defer db.Close()
	rewriteBlock(t, path, db, 2, func(b *Block) { b.Txs[0].Response = []byte("evil") })
	l, err := Open(path, db)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.VerifyChain(); err == nil || !strings.Contains(err.Error(), "block 2 data hash") {
		t.Fatalf("tamper not detected: %v", err)
	}
}

func TestTxMerkleProof(t *testing.T) {
	l := chainOf(t, 1, 5)
	blk, _ := l.GetBlock(0)
	for i := range blk.Txs {
		proof, err := blk.TxProof(i)
		if err != nil {
			t.Fatal(err)
		}
		if !blk.VerifyTxInclusion(&blk.Txs[i], proof) {
			t.Fatalf("tx %d proof failed", i)
		}
	}
	// Wrong tx against right proof fails.
	proof, _ := blk.TxProof(0)
	other := testTx(t, "other")
	if blk.VerifyTxInclusion(&other, proof) {
		t.Fatal("foreign tx verified")
	}
}

func TestIterateStops(t *testing.T) {
	l := chainOf(t, 5, 1)
	count := 0
	l.Iterate(func(*Block) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("iterate visited %d", count)
	}
}

func TestStats(t *testing.T) {
	txs := []Transaction{testTx(t, "a"), testTx(t, "b"), testTx(t, "c")}
	blk := NewBlock(0, [32]byte{}, txs, time.Now())
	blk.Metadata.Flags[1] = MVCCConflict
	s := openChain(t, "", blk).Stats()
	if s.Height != 1 || s.TotalTxs != 3 || s.ValidTxs != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestValidationCodeStrings(t *testing.T) {
	codes := []ValidationCode{Valid, MVCCConflict, EndorsementPolicyFailure, BadCreatorSignature, InvalidChaincode, InvalidOther}
	seen := map[string]bool{}
	for _, c := range codes {
		s := c.String()
		if s == "" || seen[s] {
			t.Fatalf("code %d has bad string %q", c, s)
		}
		seen[s] = true
	}
}

func TestNewTxIDUnique(t *testing.T) {
	s, _ := msp.NewSigner("o", "n", msp.RoleMember)
	a := NewTxID(s.Identity, []byte("nonce1"))
	b := NewTxID(s.Identity, []byte("nonce2"))
	if a == b {
		t.Fatal("different nonces same txid")
	}
	if len(a) != 64 {
		t.Fatalf("txid length %d", len(a))
	}
}

func TestEnvelopeSignature(t *testing.T) {
	tx := testTx(t, "signed")
	if !tx.Creator.Verify(tx.SigningBytes(), tx.Signature) {
		t.Fatal("envelope signature invalid")
	}
	tx.Response = []byte("tampered")
	if tx.Creator.Verify(tx.SigningBytes(), tx.Signature) {
		t.Fatal("tampered envelope verified")
	}
}

func TestBlockHeaderHashCoversFields(t *testing.T) {
	h := BlockHeader{Number: 1, PrevHash: [32]byte{1}, DataHash: [32]byte{2}}
	base := h.Hash()
	h2 := h
	h2.Number = 2
	if h2.Hash() == base {
		t.Fatal("hash ignores number")
	}
	h3 := h
	h3.PrevHash = [32]byte{9}
	if h3.Hash() == base {
		t.Fatal("hash ignores prev")
	}
	h4 := h
	h4.DataHash = [32]byte{9}
	if h4.Hash() == base {
		t.Fatal("hash ignores data hash")
	}
	h5 := h
	h5.Timestamp = time.Unix(1, 0)
	if h5.Hash() == base {
		t.Fatal("hash ignores timestamp")
	}
	h6 := h5
	h6.Timestamp = h5.Timestamp.In(time.FixedZone("east", 3600))
	if h6.Hash() != h5.Hash() {
		t.Fatal("hash depends on the timestamp's zone")
	}
}

func TestEmptyBlockDataHashStable(t *testing.T) {
	if ComputeDataHash(nil) != ComputeDataHash(nil) {
		t.Fatal("empty data hash unstable")
	}
}
