package peer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/statedb"
	"socialchain/internal/storage"
	"socialchain/internal/walframe"
)

// dirListing is every file under dir with its contents, as one string.
func dirListing(t *testing.T, dir string) string {
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

// TestPeerRefusesThreeEngineLayout: a durable peer's directory is the
// block log and one engine, db/. A directory that also holds history/ or
// index/ — the layout older builds wrote — fails to open with an error
// naming the layout, and is left as it was.
func TestPeerRefusesThreeEngineLayout(t *testing.T) {
	dir := t.TempDir()
	p, client := durablePeer(t, dir)
	commitIncr(t, p, client, "ctr")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "blocks.wal db" {
		t.Fatalf("peer directory holds %v, want blocks.wal and db", names)
	}
	for _, old := range []string{"history", "index"} {
		if err := os.MkdirAll(filepath.Join(dir, old), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, old, "MANIFEST"), []byte("older build"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirListing(t, dir)
		if _, err := openDurable(dir); err == nil || !strings.Contains(err.Error(), "three-engine layout") {
			t.Fatalf("peer opened a directory holding %s/: %v", old, err)
		}
		if after := dirListing(t, dir); after != before {
			t.Fatalf("refused directory with %s/ was modified", old)
		}
		if err := os.RemoveAll(filepath.Join(dir, old)); err != nil {
			t.Fatal(err)
		}
	}
	re, err := openDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}

// TestCommitFsyncsOncePerBlock: under durability always a committed block
// costs exactly one storage-WAL fsync — its state, index and history
// entries, block index and savepoint are one batch — and one block-log
// fsync, whether it writes one key or a batched envelope's eight.
func TestCommitFsyncsOncePerBlock(t *testing.T) {
	p, err := openConfig(Config{DataDir: t.TempDir(), State: storage.Config{Durability: storage.DurabilityAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	client, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	fsyncs := func() (wal, log int64) {
		st, ok := p.State().StorageStats()
		if !ok || st.Durability != storage.DurabilityAlways {
			t.Fatalf("state engine stats %+v, want the persist engine under always", st)
		}
		return st.WALFsyncs, p.Ledger().IOStats().Fsyncs
	}
	wal0, log0 := fsyncs()
	commitIncr(t, p, client, "ctr")
	commitCall(t, p, client, "set", []byte("doc"), []byte(`{"label":"car"}`))
	commitCall(t, p, client, "del", []byte("ctr"))
	var calls []chaincode.BatchCall
	for i := 0; i < 8; i++ {
		calls = append(calls, chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte(fmt.Sprintf("k%d", i))}})
	}
	bp := batchPropose(t, client, calls...)
	resp, err := p.Endorse(bp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CommitBatch([]ledger.Transaction{envelope(t, client, bp, resp)}); err != nil {
		t.Fatal(err)
	}
	const blocks = 4
	if wal, log := fsyncs(); wal-wal0 != blocks || log-log0 != blocks {
		t.Fatalf("%d blocks cost %d storage-WAL and %d block-log fsyncs, want %d of each", blocks, wal-wal0, log-log0, blocks)
	}
}

// chainHistory derives what every key's history must be from the chain
// itself: one entry per valid transaction that wrote the key, carrying
// that transaction's last write to it.
func chainHistory(t *testing.T, l *ledger.Ledger) map[string][]statedb.HistEntry {
	t.Helper()
	want := make(map[string][]statedb.HistEntry)
	l.Iterate(func(b *ledger.Block) bool {
		for i := range b.Txs {
			if b.Metadata.Flags[i] != ledger.Valid {
				continue
			}
			tx := &b.Txs[i]
			last := make(map[string]statedb.WriteItem)
			for _, w := range tx.RWSet.Writes {
				last[w.Namespace+"\x00"+w.Key] = w
			}
			for nk, w := range last {
				want[nk] = append(want[nk], statedb.HistEntry{
					TxID: tx.ID, Value: w.Value, IsDelete: w.IsDelete,
					Version: statedb.Version{BlockNum: b.Header.Number, TxNum: uint64(i)}, Timestamp: tx.Timestamp,
				})
			}
		}
		return true
	})
	return want
}

// histString renders entries with every field compared.
func histString(es []statedb.HistEntry) string {
	var out []string
	for _, e := range es {
		out = append(out, fmt.Sprintf("%s/%q/%v/%s/%d", e.TxID, e.Value, e.IsDelete, e.Version, e.Timestamp.UnixNano()))
	}
	return strings.Join(out, " ")
}

// checkHistory requires p's history of every key the chain wrote to be
// exactly what the chain says, and returns how many keys it checked.
func checkHistory(t *testing.T, p *Peer) int {
	t.Helper()
	want := chainHistory(t, p.Ledger())
	keys := make([]string, 0, len(want))
	for nk := range want {
		keys = append(keys, nk)
	}
	sort.Strings(keys)
	for _, nk := range keys {
		ns, key, _ := strings.Cut(nk, "\x00")
		if got := histString(historyOf(t, p, ns, key)); got != histString(want[nk]) {
			t.Fatalf("history of %s/%q:\n got %s\nwant %s", ns, key, got, histString(want[nk]))
		}
	}
	return len(keys)
}

// TestHistoryMatchesChain: every valid transaction leaves one history
// entry per key it wrote — a batched envelope's writes and a delete
// included — with the transaction ID, value, version and timestamp the
// chain holds, and an MVCC-invalid transaction leaves none. The same holds
// after a clean reopen and after a kill.
func TestHistoryMatchesChain(t *testing.T) {
	dir := t.TempDir()
	p, client := durablePeer(t, dir)
	commitIncr(t, p, client, "ctr")
	commitIncr(t, p, client, "gone")
	// One block: a batched envelope, and a lone incr of ctr endorsed at the
	// same height, which MVCC then invalidates.
	bp := batchPropose(t, client,
		chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("ctr")}},
		chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("ctr")}},
		chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("other")}},
		chaincode.BatchCall{Chaincode: "counter", Fn: "set", Args: [][]byte{[]byte("doc"), []byte(`{"label":"car"}`)}},
	)
	bresp, err := p.Endorse(bp)
	if err != nil {
		t.Fatal(err)
	}
	lone := propose(t, client, "incr", []byte("ctr"))
	lresp, err := p.Endorse(lone)
	if err != nil {
		t.Fatal(err)
	}
	block, err := p.CommitBatch([]ledger.Transaction{envelope(t, client, bp, bresp), envelope(t, client, lone, lresp)})
	if err != nil {
		t.Fatal(err)
	}
	if f := block.Metadata.Flags; f[0] != ledger.Valid || f[1] != ledger.MVCCConflict {
		t.Fatalf("flags %v, want the batch valid and the lone incr an MVCC conflict", f)
	}
	commitCall(t, p, client, "del", []byte("gone"))

	if n := checkHistory(t, p); n != 4 {
		t.Fatalf("the chain wrote %d keys, want 4", n)
	}
	if got := historyOf(t, p, "counter", "ctr"); len(got) != 2 || string(got[1].Value) != "3" {
		t.Fatalf("ctr history %s, want block 1's 1 and the batch's 3", histString(got))
	}
	if got := historyOf(t, p, "counter", "gone"); len(got) != 2 || !got[1].IsDelete {
		t.Fatalf("gone history %s, want a write then a delete", histString(got))
	}
	killed := t.TempDir()
	copyTree(t, dir, killed)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, killed} {
		re, _ := durablePeer(t, d)
		checkHistory(t, re)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPeerLastStateRecordCutOrFlipped cuts the state WAL's last record —
// the batch of the last block — at every offset (its end included, which
// leaves it whole), flips every byte of it, and overwrites it with zeros,
// on a copy of a killed peer's directory. Each copy reopens with that block's state, index
// entry, history reference and ledger entries either all present or all
// absent; when absent, the peer replays the block from its log and ends
// with all of them.
func TestPeerLastStateRecordCutOrFlipped(t *testing.T) {
	specs := []statedb.IndexSpec{{Name: "label", Namespace: "counter", Field: "label"}}
	open := func(dir string) *Peer {
		p, err := openConfig(Config{DataDir: dir, Indexes: specs})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	dir := t.TempDir()
	p := open(dir)
	client, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	commitCall(t, p, client, "set", []byte("d1"), []byte(`{"label":"a"}`))
	last := commitCall(t, p, client, "set", []byte("d2"), []byte(`{"label":"b"}`))
	txID := last.Txs[0].ID
	killed := t.TempDir()
	copyTree(t, dir, killed) // kill -9: the engine's WAL holds every batch
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wals, err := filepath.Glob(filepath.Join(killed, "db", "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("killed peer's engine has WAL files %v (%v), want one", wals, err)
	}
	wal, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	start := 0
	for off := 0; off < len(wal); {
		_, next, err := walframe.Next(wal, off)
		if err != nil {
			t.Fatalf("WAL frame at %d: %v", off, err)
		}
		start, off = off, next
	}

	// What the engine alone recovered, before any replay: all of block 2's
	// entries, or none.
	recovered := func(dir string) bool {
		db, err := statedb.NewIndexedWith(storage.Config{Engine: storage.EnginePersist, Dir: dir}, specs...)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		sp, _ := db.Savepoint()
		_, state := db.GetState("counter", "d2")
		page, err := db.IterIndex("label", "b", 0, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		hist, err := statedb.NewHistoryDB(db, func(uint64, uint32) (string, time.Time, []statedb.WriteItem, error) {
			return "", time.Time{}, nil, nil
		}).Get("counter", "d2")
		if err != nil {
			t.Fatal(err)
		}
		_, located := db.Reserved("T" + txID)
		all := sp == 2 && state && len(page.Entries) == 1 && len(hist) == 1 && located
		none := sp == 1 && !state && len(page.Entries) == 0 && len(hist) == 0 && !located
		if all == none {
			t.Fatalf("engine recovered savepoint %d, state %v, index %d, history %d, tx location %v: neither all of block 2 nor none",
				sp, state, len(page.Entries), len(hist), located)
		}
		return all
	}
	work := filepath.Join(t.TempDir(), "peer")
	try := func(what string, damaged []byte) {
		if err := os.RemoveAll(work); err != nil {
			t.Fatal(err)
		}
		copyTree(t, killed, work)
		if err := os.WriteFile(filepath.Join(work, "db", filepath.Base(wals[0])), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		present := recovered(work)
		re := open(work)
		defer re.Close()
		decoded := re.Ledger().IOStats().OpenDecoded
		if (present && decoded != 0) || (!present && decoded != 1) {
			t.Fatalf("%s: block 2 recovered %v, yet the open decoded %d blocks", what, present, decoded)
		}
		if re.Ledger().Height() != 3 {
			t.Fatalf("%s: reopened at height %d, want 3", what, re.Ledger().Height())
		}
		if vv, ok := re.State().GetState("counter", "d2"); !ok || string(vv.Value) != `{"label":"b"}` {
			t.Fatalf("%s: d2 = %q/%v after reopen", what, vv.Value, ok)
		}
		if keys := indexKeysOf(t, re.State(), "label", "b"); strings.Join(keys, " ") != "d2" {
			t.Fatalf("%s: index lists %v under b", what, keys)
		}
		if at, _, _, ok := re.Ledger().TxLocation(txID); !ok || at != 2 {
			t.Fatalf("%s: block 2's transaction located at %d/%v", what, at, ok)
		}
		if got := historyOf(t, re, "counter", "d2"); len(got) != 1 || got[0].TxID != txID {
			t.Fatalf("%s: d2 history %s", what, histString(got))
		}
	}
	for cut := start; cut <= len(wal); cut++ {
		try(fmt.Sprintf("cut at %d", cut), wal[:cut])
	}
	for off := start; off < len(wal); off++ {
		flipped := bytes.Clone(wal)
		flipped[off] ^= 0x01
		try(fmt.Sprintf("flip at %d", off), flipped)
	}
	try("zeroed", append(bytes.Clone(wal[:start]), make([]byte, len(wal)-start)...))
	t.Logf("last record: %d bytes at offset %d", len(wal)-start, start)
}

// indexKeysOf lists the keys index name holds under value.
func indexKeysOf(t *testing.T, db *statedb.DB, name, value string) []string {
	t.Helper()
	page, err := db.IterIndex(name, value, 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range page.Entries {
		keys = append(keys, e.Key)
	}
	return keys
}
