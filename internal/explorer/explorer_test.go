package explorer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/statedb"
	"socialchain/internal/storage"
	"socialchain/internal/walframe"
)

// openChain opens a ledger on the block log at path ("" for an unlinked
// temporary one) over a fresh in-memory world state, commits blocks the
// way a peer does — Stage, the state batch carrying the ledger's index
// entries, Append — and closes both when the test ends.
func openChain(t *testing.T, path string, blocks ...*ledger.Block) *ledger.Ledger {
	t.Helper()
	db := statedb.New()
	l, err := ledger.Open(path, db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		l.Close()
		db.Close()
	})
	for _, b := range blocks {
		index, err := l.Stage(b)
		if err != nil {
			t.Fatal(err)
		}
		db.ApplyBlockAt(nil, b.Header.Number, index...)
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// buildChain commits the fixture chain to a ledger on the block log at
// path ("" for an unlinked temporary one).
func buildChain(t *testing.T, path string) (*ledger.Ledger, []string) {
	t.Helper()
	alice, err := msp.NewSigner("org1", "alice", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := msp.NewSigner("org2", "bob", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id, cc, fn string, s *msp.Signer) ledger.Transaction {
		tx := ledger.Transaction{
			ID: id, Creator: s.Identity,
			Payload:      ledger.TxPayload{Chaincode: cc, Fn: fn, ArgHashes: ledger.HashArgs([][]byte{[]byte(id)})},
			Endorsements: []msp.EndorsementRef{{Signer: s.Identity.Fingerprint(), Signature: s.Sign([]byte(id))}},
			Timestamp:    time.Now(),
		}
		tx.Signature = s.Sign(tx.SigningBytes())
		return tx
	}
	var ids []string
	// Block 0: two valid data txs.
	b0txs := []ledger.Transaction{mk("tx-a", "data", "addData", alice), mk("tx-b", "data", "addData", bob)}
	b0 := ledger.NewBlock(0, [32]byte{}, b0txs, time.Now())
	// Block 1: one valid trust tx, one MVCC-invalid data tx.
	b1txs := []ledger.Transaction{mk("tx-c", "trust", "observe", alice), mk("tx-d", "data", "addData", alice)}
	b1 := ledger.NewBlock(1, b0.Header.Hash(), b1txs, time.Now())
	b1.Metadata.Flags[1] = ledger.MVCCConflict
	for _, tx := range append(b0txs, b1txs...) {
		ids = append(ids, tx.ID)
	}
	return openChain(t, path, b0, b1), ids
}

func TestBlocksListing(t *testing.T) {
	l, _ := buildChain(t, "")
	e := New(l)
	blocks, err := e.Blocks(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	if blocks[0].Txs != 2 || blocks[0].ValidTxs != 2 {
		t.Fatalf("block 0 = %+v", blocks[0])
	}
	if blocks[1].ValidTxs != 1 {
		t.Fatalf("block 1 = %+v", blocks[1])
	}
	// Hash linkage is surfaced.
	if blocks[1].PrevHash == blocks[0].PrevHash {
		t.Fatal("prev hashes identical")
	}
	if _, err := e.Blocks(5, 2); err == nil {
		t.Fatal("invalid range accepted")
	}
}

func TestTxLookup(t *testing.T) {
	l, ids := buildChain(t, "")
	e := New(l)
	got, err := e.Tx(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if got.Chaincode != "trust" || got.Fn != "observe" || got.Block != 1 || got.Flag != ledger.Valid {
		t.Fatalf("tx = %+v", got)
	}
	if len(got.Calls) != 1 || got.Calls[0].Fn != "observe" || len(got.Calls[0].ArgHashes) != 1 || len(got.Calls[0].ArgHashes[0]) != 64 {
		t.Fatalf("calls = %+v", got.Calls)
	}
	if len(got.Endorsers) != 1 || got.Endorsers[0].String() == "0000000000000000" {
		t.Fatalf("endorsers = %v", got.Endorsers)
	}
	var out strings.Builder
	if err := e.RenderTx(&out, ids[2]); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"call trust.observe", "arg_hashes " + got.Calls[0].ArgHashes[0], "endorsers [" + got.Endorsers[0].String() + "]"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("RenderTx lacks %q:\n%s", want, out.String())
		}
	}
	if _, err := e.Tx("missing"); err == nil {
		t.Fatal("missing tx found")
	}
}

func TestSearchFilters(t *testing.T) {
	l, _ := buildChain(t, "")
	e := New(l)
	if got := e.Search("data", "", false); len(got) != 3 {
		t.Fatalf("by chaincode = %d", len(got))
	}
	if got := e.Search("", "org1/alice", false); len(got) != 3 {
		t.Fatalf("by creator = %d", len(got))
	}
	if got := e.Search("", "", true); len(got) != 1 || got[0].Flag != ledger.MVCCConflict {
		t.Fatalf("invalid filter = %+v", got)
	}
	if got := e.Search("data", "org2/bob", false); len(got) != 1 {
		t.Fatalf("combined filter = %d", len(got))
	}
}

func TestStatsAggregation(t *testing.T) {
	l, _ := buildChain(t, "")
	e := New(l)
	s := e.Stats()
	if s.Height != 2 || s.TotalTxs != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.FlagBreakdown[ledger.Valid] != 3 || s.FlagBreakdown[ledger.MVCCConflict] != 1 {
		t.Fatalf("flags = %+v", s.FlagBreakdown)
	}
	if s.ByChaincode["data"] != 3 || s.ByChaincode["trust"] != 1 {
		t.Fatalf("by chaincode = %+v", s.ByChaincode)
	}
	if s.BytesOnChain == 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestRendering(t *testing.T) {
	l, _ := buildChain(t, "")
	e := New(l)
	var b strings.Builder
	if err := e.RenderBlocks(&b, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "block") {
		t.Fatal("block table missing header")
	}
	b.Reset()
	e.RenderStats(&b)
	out := b.String()
	if !strings.Contains(out, "VALID") || !strings.Contains(out, "MVCC_READ_CONFLICT") {
		t.Fatalf("stats output missing flags:\n%s", out)
	}
	if !strings.Contains(out, "data") {
		t.Fatal("stats output missing chaincode table")
	}
}

func TestVerifyIntegrity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.wal")
	l, _ := buildChain(t, path)
	e := New(l)
	if err := e.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Rename a committed transaction in block 0's frame, the file's first,
	// and reseal the frame's CRC: only the data hash can tell.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := walframe.HeaderLen + int(binary.BigEndian.Uint32(data))
	at := bytes.Index(data[:end], []byte("tx-a"))
	if at < 0 {
		t.Fatal("fixture: tx-a not in block 0's frame")
	}
	data[at+3] = 'X'
	binary.BigEndian.PutUint32(data[4:], crc32.ChecksumIEEE(data[walframe.HeaderLen:end]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.VerifyIntegrity(); err == nil || !strings.Contains(err.Error(), "block 0 data hash") {
		t.Fatalf("tamper not detected: %v", err)
	}
}

func TestIndexPageThroughExplorer(t *testing.T) {
	l, _ := buildChain(t, "")
	db, err := statedb.NewIndexedWith(storage.Config{},
		statedb.IndexSpec{Name: "label", Namespace: "data", Field: "label"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	batch := statedb.NewUpdateBatch()
	for i := 0; i < 5; i++ {
		batch.Put("data", fmt.Sprintf("rec/%d", i), []byte(fmt.Sprintf(`{"label":"car","i":%d}`, i)))
	}
	db.ApplyBlockAt([]statedb.TxUpdate{{Batch: batch, Version: statedb.Version{BlockNum: 1}}}, 1)

	e := New(l)
	if _, err := e.IndexPage("label", "car", 10, ""); err == nil {
		t.Fatal("index page served without state attached")
	}
	e = e.WithState(db)
	page, err := e.IndexPage("label", "car", 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 3 || page.Next == "" {
		t.Fatalf("page = %+v", page)
	}
	var buf strings.Builder
	next, err := e.RenderIndexPage(&buf, "label", "car", 3, page.Next)
	if err != nil {
		t.Fatal(err)
	}
	if next != "" {
		t.Fatalf("expected final page, got token %q", next)
	}
	out := buf.String()
	if !strings.Contains(out, "rec/3") || !strings.Contains(out, "rec/4") {
		t.Fatalf("rendered page missing entries:\n%s", out)
	}
}
