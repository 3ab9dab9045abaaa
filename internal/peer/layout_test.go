package peer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

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
// costs one fsync — the block log's, before the block's state batch — and
// none of the state engine's, which keeps no log: its state, index and
// history entries, block index and savepoint are one memtable batch
// whether it writes one key or a batched envelope's eight.
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
	fsyncs := func() (engine, log int64) {
		st, ok := p.State().StorageStats()
		if !ok || st.Durability != storage.DurabilityAlways {
			t.Fatalf("state engine stats %+v, want the persist engine under always", st)
		}
		return st.WALFsyncs, p.Ledger().IOStats().Fsyncs
	}
	engine0, log0 := fsyncs()
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
	if engine, log := fsyncs(); engine-engine0 != 0 || log-log0 != blocks {
		t.Fatalf("%d blocks cost %d state-engine and %d block-log fsyncs, want 0 and %d", blocks, engine-engine0, log-log0, blocks)
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

// TestPeerLastStateRecordCutOrFlipped: the block log is the state
// engine's write-ahead log, so the last state record is the block log's
// last frame above the engine's last flushed savepoint. On a copy of a
// killed peer's directory that frame is cut at every offset (its end
// included, which leaves it whole), has every byte flipped, and is
// overwritten with zeros. Each copy reopens with that block's state,
// index entry, history reference and ledger entries either all present —
// the frame was whole and the open replayed it — or all absent, at the
// height below it; an absent block comes back whole from a neighbour.
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
	if err := p.Close(); err != nil { // a checkpoint: savepoint 1 is in a table
		t.Fatal(err)
	}
	p = open(dir)
	start := fileSize(t, filepath.Join(dir, "blocks.wal"))
	last := commitCall(t, p, client, "set", []byte("d2"), []byte(`{"label":"b"}`))
	txID := last.Txs[0].ID
	killed := t.TempDir()
	copyTree(t, dir, killed) // kill -9: block 2 is in the log, its batch in no table
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	src := open(dir)
	defer src.Close()
	wal, err := os.ReadFile(filepath.Join(killed, "blocks.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, next, err := walframe.Next(wal, int(start)); err != nil || next != len(wal) {
		t.Fatalf("block 2's frame at %d: %v (ends at %d of %d)", start, err, next, len(wal))
	}

	work := filepath.Join(t.TempDir(), "peer")
	resynced := false
	try := func(what string, damaged []byte) {
		if err := os.RemoveAll(work); err != nil {
			t.Fatal(err)
		}
		copyTree(t, killed, work)
		if err := os.WriteFile(filepath.Join(work, "blocks.wal"), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		re := open(work)
		defer re.Close()
		height := re.Ledger().Height()
		vv, state := re.State().GetState("counter", "d2")
		keys := indexKeysOf(t, re.State(), "label", "b")
		at, _, _, located := re.Ledger().TxLocation(txID)
		hist := historyOf(t, re, "counter", "d2")
		all := height == 3 && state && string(vv.Value) == `{"label":"b"}` && strings.Join(keys, " ") == "d2" &&
			located && at == 2 && len(hist) == 1 && hist[0].TxID == txID
		none := height == 2 && !state && len(keys) == 0 && !located && len(hist) == 0
		if all == none {
			t.Fatalf("%s: height %d, state %v, index %v, tx location %d/%v, history %s: neither all of block 2 nor none",
				what, height, state, keys, at, located, histString(hist))
		}
		if decoded := re.Ledger().IOStats().OpenDecoded; all != (decoded == 1) {
			t.Fatalf("%s: block 2 present %v, yet the open decoded %d blocks", what, all, decoded)
		}
		if none && !resynced {
			resynced = true
			if _, err := re.SyncFrom(src); err != nil {
				t.Fatalf("%s: catch-up: %v", what, err)
			}
			if got := historyOf(t, re, "counter", "d2"); re.Ledger().Height() != 3 || len(got) != 1 || got[0].TxID != txID {
				t.Fatalf("%s: after catch-up height %d, d2 history %s", what, re.Ledger().Height(), histString(got))
			}
		}
	}
	for cut := int(start); cut <= len(wal); cut++ {
		try(fmt.Sprintf("cut at %d", cut), wal[:cut])
	}
	for off := int(start); off < len(wal); off++ {
		flipped := bytes.Clone(wal)
		flipped[off] ^= 0x01
		try(fmt.Sprintf("flip at %d", off), flipped)
	}
	try("zeroed", append(bytes.Clone(wal[:start]), make([]byte, len(wal)-int(start))...))
	t.Logf("last frame: %d bytes at offset %d", len(wal)-int(start), start)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
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
