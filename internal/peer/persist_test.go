package peer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/statedb"
	"socialchain/internal/storage"
	"socialchain/internal/walframe"
)

// durablePeer opens (or reopens) a durable peer over dir. Signer and
// registry are rebuilt each call, exactly like a restarted process.
func durablePeer(t *testing.T, dir string) (*Peer, *msp.Signer) {
	t.Helper()
	p, err := openDurable(dir)
	if err != nil {
		t.Fatalf("open durable peer at %s: %v", dir, err)
	}
	client, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	return p, client
}

// openDurable builds a durable peer over dir, returning open errors.
func openDurable(dir string) (*Peer, error) {
	return openDurableWith(dir, storage.Config{})
}

// openDurableWith is openDurable with the state engines' sizing chosen by
// the caller.
func openDurableWith(dir string, state storage.Config) (*Peer, error) {
	return openObserved(dir, state, nil)
}

// openObserved is openDurableWith exporting the peer's metrics on metrics.
func openObserved(dir string, state storage.Config, metrics *obs.Registry) (*Peer, error) {
	return openConfig(Config{State: state, DataDir: dir, Obs: metrics})
}

// openConfig opens the durable test peer over cfg.DataDir: peer0 of the
// test membership running the counter chaincode, with whatever else cfg
// sets.
func openConfig(cfg Config) (*Peer, error) {
	reg := chaincode.NewRegistry()
	if err := reg.Register(counterCC{}); err != nil {
		return nil, err
	}
	cfg.ID, cfg.ChannelID, cfg.Signer, cfg.Registry = "peer0", "ch", testSigner("peer0"), reg
	cfg.Policy, cfg.Identities = anyOne, testMembers
	return Open(cfg)
}

// commitIncr endorses and commits one "incr" transaction as its own block.
func commitIncr(t testing.TB, p *Peer, client *msp.Signer, key string) *ledger.Block {
	t.Helper()
	return commitCall(t, p, client, "incr", []byte(key))
}

// commitCall endorses and commits one counter-chaincode call as its own
// block.
func commitCall(t testing.TB, p *Peer, client *msp.Signer, fn string, args ...[]byte) *ledger.Block {
	t.Helper()
	prop := propose(t, client, fn, args...)
	resp, err := p.Endorse(prop)
	if err != nil {
		t.Fatal(err)
	}
	block, err := p.CommitBatch([]ledger.Transaction{envelope(t, client, prop, resp)})
	if err != nil {
		t.Fatal(err)
	}
	return block
}

// stateSnapshot captures the canonical byte form of a peer's world state.
func stateSnapshot(t *testing.T, p *Peer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.State().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copyTree copies a directory recursively (small test trees only).
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, werr error) error {
		if werr != nil {
			return werr
		}
		rel, rerr := filepath.Rel(src, path)
		if rerr != nil {
			return rerr
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		return os.WriteFile(target, data, info.Mode())
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenRequiresDataDir(t *testing.T) {
	if _, err := Open(Config{ID: "p", Policy: anyOne}); err == nil {
		t.Fatal("Open without DataDir succeeded")
	}
}

// TestPeerWithoutDataDirKeepsAnUnlinkedLog: a peer without a DataDir keeps
// its chain in a block log like every other peer, in a temporary file
// unlinked at open. The temporary directory stays empty while the peer
// commits, a scan decodes its blocks from the file, and reads fail once
// the peer is closed.
func TestPeerWithoutDataDirKeepsAnUnlinkedLog(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	reg := chaincode.NewRegistry()
	if err := reg.Register(counterCC{}); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		ID: "peer0", ChannelID: "ch", Signer: testSigner("peer0"), Registry: reg,
		Policy: anyOne, Identities: testMembers,
		// A persist engine without a directory would make one under TMPDIR.
		State: storage.Config{Engine: storage.EngineSingle},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		commitIncr(t, p, client, fmt.Sprintf("k%d", i))
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Fatalf("the temporary directory holds %d entries (%v), want none", len(entries), err)
	}
	before := p.Ledger().IOStats().BlockReads
	seen := 0
	p.Ledger().Iterate(func(*ledger.Block) bool { seen++; return true })
	if reads := p.Ledger().IOStats().BlockReads - before; seen != 4 || reads != 4 {
		t.Fatalf("a scan of %d blocks decoded %d from the block log, want 4 and 4", seen, reads)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ledger().GetBlock(1); err == nil {
		t.Fatal("GetBlock succeeded after Close")
	}
	if _, err := p.Ledger().BlocksFrom(0, 0); err == nil {
		t.Fatal("BlocksFrom succeeded after Close")
	}
}

// TestPeerReopenRecoversChainAndState commits blocks on a durable peer,
// closes it, reopens the directory and requires the identical chain
// (height, tip hash, verified linkage), identical canonical state bytes —
// and that the reopened peer keeps committing.
func TestPeerReopenRecoversChainAndState(t *testing.T) {
	dir := t.TempDir()
	p, client := durablePeer(t, dir)
	for i := 0; i < 3; i++ {
		commitIncr(t, p, client, "ctr")
	}
	commitIncr(t, p, client, "other")
	wantHeight := p.Ledger().Height()
	wantTip := p.Ledger().TipHash()
	wantState := stateSnapshot(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, client2 := durablePeer(t, dir)
	defer re.Close()
	if got := re.Ledger().Height(); got != wantHeight {
		t.Fatalf("reopened height = %d, want %d", got, wantHeight)
	}
	if re.Ledger().TipHash() != wantTip {
		t.Fatal("reopened tip hash differs")
	}
	if err := re.Ledger().VerifyChain(); err != nil {
		t.Fatalf("reopened chain broken: %v", err)
	}
	if got := stateSnapshot(t, re); !bytes.Equal(got, wantState) {
		t.Fatalf("reopened state differs:\nwant %s\n got %s", wantState, got)
	}
	if vv, ok := re.State().GetState("counter", "ctr"); !ok || string(vv.Value) != "3" {
		t.Fatalf("recovered ctr = %q/%v, want 3", vv.Value, ok)
	}
	// The recovered peer is live: endorse + commit must still work.
	commitIncr(t, re, client2, "ctr")
	if vv, _ := re.State().GetState("counter", "ctr"); string(vv.Value) != "4" {
		t.Fatalf("post-recovery commit produced ctr = %q", vv.Value)
	}
	if re.Ledger().Height() != wantHeight+1 {
		t.Fatalf("post-recovery height = %d", re.Ledger().Height())
	}
}

// TestPeerRecoveryReplaysUnappliedTail simulates the crash window between
// "block appended to the log" and "state batch applied": a directory is
// captured at height 2, then given the block log of height 3. Recovery
// must replay the extra block through validate-then-commit — recorded
// flags cross-checked — and land on exactly the state a crash-free peer
// has.
func TestPeerRecoveryReplaysUnappliedTail(t *testing.T) {
	dir := t.TempDir()
	p, client := durablePeer(t, dir)
	commitIncr(t, p, client, "ctr")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Capture the peer's on-disk state at height 2 (genesis + 1 block).
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)

	// Advance the original by one more block.
	p2, client2 := durablePeer(t, dir)
	commitIncr(t, p2, client2, "ctr")
	wantHeight := p2.Ledger().Height()
	wantState := stateSnapshot(t, p2)
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	// Graft the longer block log onto the older state — exactly what disk
	// holds if the process died after logging block 2 but before applying
	// it.
	data, err := os.ReadFile(filepath.Join(dir, "blocks.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashDir, "blocks.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, _ := durablePeer(t, crashDir)
	defer re.Close()
	if got := re.Ledger().Height(); got != wantHeight {
		t.Fatalf("recovered height = %d, want %d", got, wantHeight)
	}
	if got := stateSnapshot(t, re); !bytes.Equal(got, wantState) {
		t.Fatalf("replayed state differs from crash-free state:\nwant %s\n got %s", wantState, got)
	}
	if err := re.Ledger().VerifyChain(); err != nil {
		t.Fatal(err)
	}
	// Only the block above the savepoint was decoded, and replaying it
	// re-derived its index entries along with its state.
	if got := re.Ledger().IOStats().OpenDecoded; got != 1 {
		t.Fatalf("open decoded %d blocks, want the 1 above the savepoint", got)
	}
	tip, err := re.Ledger().GetBlock(wantHeight - 1)
	if err != nil {
		t.Fatal(err)
	}
	if at, idx, flag, ok := re.Ledger().TxLocation(tip.Txs[0].ID); !ok || at != wantHeight-1 || idx != 0 || flag != ledger.Valid {
		t.Fatalf("replayed transaction indexed at %d/%d/%s/%v", at, idx, flag, ok)
	}
}

// TestPeerRecoveryTornLogTail simulates dying mid-append of block 2: the
// log holds blocks 0-1 plus garbage bytes. The peer must come back at
// height 2, catch the lost tail up through SyncFrom (which re-logs it),
// and hold the full chain across one more restart.
func TestPeerRecoveryTornLogTail(t *testing.T) {
	dir := t.TempDir()
	p, client := durablePeer(t, dir)
	commitIncr(t, p, client, "ctr")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	tornDir := t.TempDir()
	copyTree(t, dir, tornDir)

	// The healthy peer advances one more block.
	src, client2 := durablePeer(t, dir)
	commitIncr(t, src, client2, "ctr")
	fullHeight := src.Ledger().Height()
	fullState := stateSnapshot(t, src)

	// Torn append: block 2's record started landing but never completed.
	f, err := os.OpenFile(filepath.Join(tornDir, "blocks.wal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, _ := durablePeer(t, tornDir)
	if got := re.Ledger().Height(); got != 2 {
		t.Fatalf("torn-tail peer height = %d, want 2", got)
	}
	if _, err := re.SyncFrom(src); err != nil {
		t.Fatalf("catch-up sync: %v", err)
	}
	if re.Ledger().Height() != fullHeight {
		t.Fatalf("post-sync height = %d, want %d", re.Ledger().Height(), fullHeight)
	}
	if got := stateSnapshot(t, re); !bytes.Equal(got, fullState) {
		t.Fatal("post-sync state differs from source peer")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// The synced tail was re-logged: one more reopen lands at full height.
	re2, _ := durablePeer(t, tornDir)
	defer re2.Close()
	if re2.Ledger().Height() != fullHeight {
		t.Fatalf("resynced peer reopened at height %d, want %d", re2.Ledger().Height(), fullHeight)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPeerRecoveryGuardsSavepointAheadOfLog: if the block log lost
// COMMITTED records (state savepoint beyond the log's tip — impossible
// under kill/restart, possible under file-level damage), the peer must
// refuse to open rather than run on state it cannot re-derive.
func TestPeerRecoveryGuardsSavepointAheadOfLog(t *testing.T) {
	dir := t.TempDir()
	p, client := durablePeer(t, dir)
	commitIncr(t, p, client, "ctr")
	commitIncr(t, p, client, "ctr")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop the log down mid-record so block 2 disappears while the state
	// savepoint still says 2.
	logPath := filepath.Join(dir, "blocks.wal")
	st, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	if _, err := openDurable(dir); err == nil {
		t.Fatal("peer opened over a block log behind its state savepoint")
	} else if !strings.Contains(err.Error(), "block log lost") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestPeerRecoveryGuardsMissingLog: deleting the block log outright while
// the state survives must refuse to open — a fresh genesis over stale
// recovered world state would be silent corruption — and leave the
// directory as it was, with no empty log created in the deleted one's
// place, however often it is retried.
func TestPeerRecoveryGuardsMissingLog(t *testing.T) {
	dir := t.TempDir()
	p, client := durablePeer(t, dir)
	commitIncr(t, p, client, "ctr")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "blocks.wal")
	if err := os.Remove(logPath); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	for try := 0; try < 2; try++ {
		if _, err := openDurable(dir); err == nil {
			t.Fatal("peer opened with a deleted block log over surviving state")
		} else if !strings.Contains(err.Error(), "block log lost") || !errors.Is(err, walframe.ErrLost) {
			t.Fatalf("unexpected error: %v", err)
		}
		if _, err := os.Stat(logPath); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("refused open left a block log behind: %v", err)
		}
		if dirListing(t, dir) != before {
			t.Fatal("refused directory was modified")
		}
	}
}

// TestPeerRecoveryRejectsTamperedLog flips a byte inside a logged record
// at the savepoint. Open reads nothing at or below the savepoint, so the
// peer opens at full height from its chain record; the damage must then
// be loud wherever the block is read — never a wrong block.
func TestPeerRecoveryRejectsTamperedLog(t *testing.T) {
	dir := t.TempDir()
	p, client := durablePeer(t, dir)
	txID := commitIncr(t, p, client, "ctr").Txs[0].ID
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "blocks.wal")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff // inside block 1's payload
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := openDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if h := re.Ledger().Height(); h != 2 {
		t.Fatalf("reopened at height %d, want 2", h)
	}
	if _, err := re.Ledger().GetBlock(1); err == nil {
		t.Fatal("tampered block read back without error")
	}
	if err := re.Ledger().VerifyChain(); err == nil {
		t.Fatal("VerifyChain passed over a tampered block")
	}
	if _, err := re.BlocksFrom(1); err == nil {
		t.Fatal("tampered block served to a syncing peer")
	}
	if _, _, _, err := re.Ledger().GetTx(txID); err == nil {
		t.Fatal("transaction read back from a tampered block")
	}
}

// TestDurableSyncPersistsAcrossRestart: a durable peer that received its
// chain via SyncFrom (not local commits) must survive its own restart.
func TestDurableSyncPersistsAcrossRestart(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, client := durablePeer(t, srcDir)
	commitIncr(t, src, client, "ctr")
	commitIncr(t, src, client, "other")

	dst, _ := durablePeer(t, dstDir)
	if _, err := dst.SyncFrom(src); err != nil {
		t.Fatal(err)
	}
	wantHeight := dst.Ledger().Height()
	wantState := stateSnapshot(t, dst)
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	re, _ := durablePeer(t, dstDir)
	defer re.Close()
	if re.Ledger().Height() != wantHeight {
		t.Fatalf("reopened synced peer at height %d, want %d", re.Ledger().Height(), wantHeight)
	}
	if got := stateSnapshot(t, re); !bytes.Equal(got, wantState) {
		t.Fatal("reopened synced peer state differs")
	}
}

// TestPeerOpenCostSweep builds chains of 2k and 16k single-transaction
// blocks, kills each peer (on a copy) after its last three blocks reached
// the block log but not the state, and opens the result. The open must
// decode exactly those three blocks — not one at or below the savepoint —
// and leave about the same heap behind whatever the chain length: the
// ledger holds a height, a tip and counters, not the chain. What still
// grows is the state engine's table metadata (bloom filters at 10 bits a
// key and a fence key per 4 KiB block: some 20 bytes a block for the
// three keys a block adds), so the bound is on bytes per added block — a
// decoded single-transaction block is about 2 KiB — not on a ratio
// against the few hundred KiB an idle test peer occupies.
func TestPeerOpenCostSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an 18k-block chain")
	}
	// Small memtables: what an open holds in its memtable is a sawtooth in
	// chain length and would drown the comparison.
	state := storage.Config{MemtableBytes: 64 << 10}
	const unapplied = 3
	client, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	grow := func(p *Peer, blocks int) {
		for i := 0; i < blocks; i++ {
			commitIncr(t, p, client, fmt.Sprintf("ctr%d", i%64))
		}
	}
	heapAfterOpen := func(blocks int) float64 {
		dir, crashDir := t.TempDir(), t.TempDir()
		p, err := openDurableWith(dir, state)
		if err != nil {
			t.Fatal(err)
		}
		grow(p, blocks-unapplied)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		copyTree(t, dir, crashDir)
		if p, err = openDurableWith(dir, state); err != nil {
			t.Fatal(err)
		}
		grow(p, unapplied)
		wantHeight, wantTip := p.Ledger().Height(), p.Ledger().TipHash()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile(filepath.Join(dir, "blocks.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, "blocks.wal"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		p, log = nil, nil

		re, err := openDurableWith(crashDir, state)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if got := re.Ledger().IOStats(); got.OpenDecoded != unapplied || got.BlockReads != 0 {
			t.Fatalf("%d blocks: open decoded %d blocks and read %d more, want exactly the %d above the savepoint",
				blocks, got.OpenDecoded, got.BlockReads, unapplied)
		}
		if re.Ledger().Height() != wantHeight || re.Ledger().TipHash() != wantTip {
			t.Fatalf("%d blocks: recovered height %d, want %d with the same tip", blocks, re.Ledger().Height(), wantHeight)
		}
		if s := re.Ledger().Stats(); s.Height != wantHeight || s.TotalTxs != blocks || s.ValidTxs != blocks {
			t.Fatalf("%d blocks: recovered stats %+v", blocks, s)
		}
		return float64(m.HeapAlloc)
	}
	small, large := heapAfterOpen(2_000), heapAfterOpen(16_000)
	perBlock := (large - small) / 14_000
	t.Logf("heap after open: %.2f MiB at 2k blocks, %.2f MiB at 16k blocks (ratio %.2f, %.0f B per added block)",
		small/(1<<20), large/(1<<20), large/small, perBlock)
	if perBlock >= 64 {
		t.Fatalf("heap after open grew %.0f B per added block from 2k to 16k blocks, want < 64", perBlock)
	}
}

// sumMetric adds up every series of one family as /metrics prints it, the
// way a scraper would, and reports how many series it found.
func sumMetric(t *testing.T, reg *obs.Registry, name string) (sum float64, series int) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		sum += v
		series++
	}
	return sum, series
}

// TestPeerCleanStopReplaysNothing: what a restart costs must not depend on
// how much the peer had written since its engine last flushed. Two peers
// stop holding 10 and 4 000 unflushed state batches. Closed cleanly, both
// open with no block decoded and the same heap to within 1 MB; killed (the
// directory copied before Close), the open decodes and replays every block
// the log holds above the savepoint — all of them, genesis included, since
// the engine never flushed — and the peer comes back at the same height.
func TestPeerCleanStopReplaysNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 4k blocks")
	}
	client, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	// A memtable that holds all 4 000 writes unflushed, above the default.
	state := storage.Config{MemtableBytes: 4 << 20}
	type opened struct {
		decoded, heapMB float64 // decoded: as /metrics prints it
		height          uint64
	}
	open := func(dir string) opened {
		metrics := obs.NewRegistry()
		p, err := openObserved(dir, state, metrics)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		decoded, series := sumMetric(t, metrics, "ledger_open_blocks_decoded")
		if series != 1 {
			t.Fatalf("ledger_open_blocks_decoded has %d series, want the one ledger's", series)
		}
		if int(decoded) != p.Ledger().IOStats().OpenDecoded {
			t.Fatalf("/metrics says %v blocks decoded, the ledger %d", decoded, p.Ledger().IOStats().OpenDecoded)
		}
		return opened{decoded, float64(m.HeapAlloc) / (1 << 20), p.Ledger().Height()}
	}
	var cleanHeaps []float64
	for _, writes := range []int{10, 4000} {
		clean, crashed := t.TempDir(), t.TempDir()
		p, err := openDurableWith(clean, state)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < writes; i++ {
			commitIncr(t, p, client, fmt.Sprintf("ctr%d", i%64))
		}
		if st, _ := p.State().StorageStats(); st.Flushes != 0 {
			t.Fatalf("test setup: the state engine flushed %d times, the %d writes are not all unflushed", st.Flushes, writes)
		}
		height := p.Ledger().Height()
		copyTree(t, clean, crashed) // kill -9 here
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}

		got := open(clean)
		if got.decoded != 0 || got.height != height {
			t.Fatalf("%d writes, clean stop: decoded %v blocks, height %d (want 0, %d)", writes, got.decoded, got.height, height)
		}
		cleanHeaps = append(cleanHeaps, got.heapMB)

		got = open(crashed)
		if got.decoded != float64(writes+1) || got.height != height {
			t.Fatalf("%d writes, killed: decoded %v blocks, height %d (want %d, %d)", writes, got.decoded, got.height, writes+1, height)
		}
	}
	t.Logf("heap after a clean-stop open: %.2f MB holding 10 writes, %.2f MB holding 4000", cleanHeaps[0], cleanHeaps[1])
	if d := cleanHeaps[1] - cleanHeaps[0]; d > 1 || d < -1 {
		t.Fatalf("heap after a clean-stop open differs by %.2f MB between 10 and 4000 unflushed writes, want within 1", d)
	}
}

// killCopy copies a running peer's directory the way kill -9 leaves it:
// the state engine's files first, again until its manifest held still
// across the copy (a flush or compaction in flight replaces tables under
// it), then the block log, which only grows.
func killCopy(t *testing.T, src, dst string) {
	t.Helper()
	copyFiles := func(from, to string) {
		entries, err := os.ReadDir(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(to, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(from, e.Name()))
			if errors.Is(err, fs.ErrNotExist) || e.IsDir() {
				continue // replaced under the copy: the manifest check tells
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	manifest := filepath.Join(src, "db", "MANIFEST")
	for {
		before, _ := os.ReadFile(manifest)
		if err := os.RemoveAll(dst); err != nil {
			t.Fatal(err)
		}
		copyFiles(filepath.Join(src, "db"), filepath.Join(dst, "db"))
		if after, _ := os.ReadFile(manifest); bytes.Equal(before, after) {
			break
		}
	}
	data, err := os.ReadFile(filepath.Join(src, "blocks.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "blocks.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPeerPowerLossUnderEachDurability: under each durability mode a
// running peer's directory, its state engine holding unflushed blocks, is
// copied and its block log cut back the way a power loss can leave it —
// to any offset from the end of the savepoint block the engine's tables
// name up to the file's end. The engine fsyncs the log before it
// publishes a table, so its last fsync covered at least that savepoint;
// under always every block is fsynced before its state batch, so the
// whole file survives. Each copy opens, never refuses, at or above its
// savepoint, and holds exactly the blocks whose frames survived, with
// their state. The block log fsyncs as the mode says: once per block
// under always, only from the state engine's flushes under none.
func TestPeerPowerLossUnderEachDurability(t *testing.T) {
	client, err := msp.NewSigner("clientorg", "alice", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []storage.Durability{storage.DurabilityNone, storage.DurabilityBatch, storage.DurabilityAlways} {
		t.Run(string(mode), func(t *testing.T) {
			state := storage.Config{Durability: mode, MemtableBytes: 8 << 10}
			dir, killed := t.TempDir(), t.TempDir()
			p, err := openDurableWith(dir, state)
			if err != nil {
				t.Fatal(err)
			}
			const blocks = 67
			for i := 0; i < blocks; i++ {
				commitIncr(t, p, client, "ctr")
			}
			flushed := func() bool { st, _ := p.State().StorageStats(); return st.Flushes > 0 }
			for deadline := time.Now().Add(10 * time.Second); !flushed() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond) // the flush the commits made due
			}
			killCopy(t, dir, killed)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			st, _ := p.State().StorageStats()
			fsyncs := p.Ledger().IOStats().Fsyncs
			switch {
			case st.Flushes < 2: // one of them Close's
				t.Fatal("test setup: the state engine never flushed before Close")
			case mode == storage.DurabilityAlways && fsyncs < blocks:
				t.Fatalf("always: %d block-log fsyncs for %d blocks", fsyncs, blocks)
			case mode == storage.DurabilityNone && (fsyncs == 0 || fsyncs > st.WALFsyncs):
				t.Fatalf("none: %d block-log fsyncs beside %d the state engine's flushes asked for", fsyncs, st.WALFsyncs)
			}

			// The savepoint the copy's tables name, and where its block ends.
			db, err := statedb.NewWith(storage.Config{Engine: storage.EnginePersist, Dir: cloneTree(t, killed)})
			if err != nil {
				t.Fatal(err)
			}
			sp, ok := db.Savepoint()
			rec, _ := db.Reserved("L")
			db.Close()
			if !ok || len(rec) < 32 {
				t.Fatal("test setup: the killed copy's tables hold no savepoint")
			}
			log, err := os.ReadFile(filepath.Join(killed, "blocks.wal"))
			if err != nil {
				t.Fatal(err)
			}
			type cut struct {
				at     int
				height uint64
			}
			cuts := []cut{{len(log), blocks + 1}}
			if mode != storage.DurabilityAlways {
				cuts = cuts[:0]
				height := sp + 1
				for off := int(binary.BigEndian.Uint64(rec[24:])); ; height++ {
					cuts = append(cuts, cut{off, height})
					_, next, err := walframe.Next(log, off)
					if err != nil {
						break
					}
					cuts = append(cuts, cut{off + (next-off)/2, height})
					off = next
				}
			}
			work := filepath.Join(t.TempDir(), "peer")
			for _, c := range cuts {
				if err := os.RemoveAll(work); err != nil {
					t.Fatal(err)
				}
				copyTree(t, killed, work)
				if err := os.Truncate(filepath.Join(work, "blocks.wal"), int64(c.at)); err != nil {
					t.Fatal(err)
				}
				re, err := openDurableWith(work, state)
				if err != nil {
					t.Fatalf("log cut to %d of %d bytes (savepoint %d): %v", c.at, len(log), sp, err)
				}
				vv, _ := re.State().GetState("counter", "ctr")
				height := re.Ledger().Height()
				verr := re.Ledger().VerifyChain()
				re.Close()
				if height != c.height || string(vv.Value) != fmt.Sprint(height-1) || verr != nil {
					t.Fatalf("log cut to %d: height %d with ctr %q (%v), want height %d", c.at, height, vv.Value, verr, c.height)
				}
			}
		})
	}
}

// cloneTree copies dir into a fresh temp dir.
func cloneTree(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	copyTree(t, dir, out)
	return out
}
