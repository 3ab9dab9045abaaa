package peer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
// none of the state engine's, which keeps no log: its state and index
// entries, block index and savepoint are one memtable batch
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

// TestPeerEngineHoldsNoHistoryKeys: a peer keeps no history index — a
// record's provenance is the chain and its PrevTxID links — so after
// stores of every kind (a single write, a batched envelope, an indexed
// document, a delete, an MVCC-invalid transaction) its state engine holds
// index and ledger entries under the reserved prefix, and no \x00H key.
func TestPeerEngineHoldsNoHistoryKeys(t *testing.T) {
	dir := t.TempDir()
	p, err := openConfig(Config{DataDir: dir, Indexes: []statedb.IndexSpec{{Name: "label", Namespace: "counter", Field: "label"}}})
	if err != nil {
		t.Fatal(err)
	}
	client, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	commitIncr(t, p, client, "ctr")
	commitCall(t, p, client, "set", []byte("doc"), []byte(`{"label":"car"}`))
	bp := batchPropose(t, client,
		chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("ctr")}},
		chaincode.BatchCall{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("other")}},
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
	commitCall(t, p, client, "del", []byte("ctr"))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	kv, err := storage.Open(storage.Config{Dir: filepath.Join(dir, "db")})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	kinds := map[byte]int{}
	kv.IterPrefix("\x00", func(k string, _ []byte) bool {
		if len(k) > 1 {
			kinds[k[1]]++
		}
		return true
	})
	if kinds['H'] != 0 {
		t.Fatalf("the state engine holds %d \\x00H keys after 4 blocks", kinds['H'])
	}
	if kinds['I'] == 0 || kinds['T'] == 0 || kinds['B'] == 0 {
		t.Fatalf("reserved keys by kind %q: want index and ledger entries", kinds)
	}
}

// TestPeerLastStateRecordCutOrFlipped: the block log is the state
// engine's write-ahead log, so the last state record is the block log's
// last frame above the engine's last flushed savepoint. On a copy of a
// killed peer's directory that frame is cut at every offset (its end
// included, which leaves it whole), has every byte flipped, and is
// overwritten with zeros. Each copy reopens with that block's state,
// index entry and ledger entries either all present —
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
		all := height == 3 && state && string(vv.Value) == `{"label":"b"}` && strings.Join(keys, " ") == "d2" &&
			located && at == 2
		none := height == 2 && !state && len(keys) == 0 && !located
		if all == none {
			t.Fatalf("%s: height %d, state %v, index %v, tx location %d/%v: neither all of block 2 nor none",
				what, height, state, keys, at, located)
		}
		if decoded := re.Ledger().IOStats().OpenDecoded; all != (decoded == 1) {
			t.Fatalf("%s: block 2 present %v, yet the open decoded %d blocks", what, all, decoded)
		}
		if none && !resynced {
			resynced = true
			if _, err := re.SyncFrom(src); err != nil {
				t.Fatalf("%s: catch-up: %v", what, err)
			}
			vv, state := re.State().GetState("counter", "d2")
			if at, _, _, located := re.Ledger().TxLocation(txID); re.Ledger().Height() != 3 || !state || vv.Version.BlockNum != 2 || !located || at != 2 {
				t.Fatalf("%s: after catch-up height %d, d2 state %v at %+v, tx location %d/%v", what, re.Ledger().Height(), state, vv.Version, at, located)
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
