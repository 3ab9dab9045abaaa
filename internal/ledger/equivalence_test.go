package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"socialchain/internal/msp"
	"socialchain/internal/statedb"
	"socialchain/internal/storage"
)

// randomChain builds a hash-linked chain of n blocks: genesis, then blocks
// of zero to three transactions, some of them batched ingest envelopes,
// about a quarter flagged invalid.
func randomChain(t *testing.T, rng *rand.Rand, n int) []*Block {
	t.Helper()
	signer := msp.NewSignerFromSeed("org", "client", "equivalence", msp.RoleMember)
	call := func() TxPayload {
		return TxPayload{Chaincode: "cc", Fn: "put", ArgHashes: HashArgs([][]byte{[]byte(fmt.Sprintf("k%d", rng.Intn(50))), make([]byte, rng.Intn(200))})}
	}
	invalid := []ValidationCode{MVCCConflict, EndorsementPolicyFailure, BadCreatorSignature}
	var chain []*Block
	var prev [32]byte
	for num := 0; num < n; num++ {
		var txs []Transaction
		for i := 0; num > 0 && i < rng.Intn(4); i++ {
			tx := Transaction{
				ID:        fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64()),
				ChannelID: "ch",
				Creator:   signer.Identity,
				Payload:   call(),
				Response:  []byte("ok"),
				RWSet: statedb.RWSet{
					Writes: []statedb.WriteItem{{Namespace: "cc", Key: fmt.Sprintf("k%d", rng.Intn(50)), Value: []byte("v")}},
				},
				Timestamp: time.Unix(int64(1000+num), int64(i)).UTC(),
			}
			if rng.Intn(3) == 0 {
				tx.Payload = TxPayload{Batch: []TxPayload{call(), call(), call()}}
			}
			txs = append(txs, tx)
		}
		b := NewBlock(uint64(num), prev, txs, time.Unix(int64(1000+num), 0).UTC())
		for i := range b.Metadata.Flags {
			if rng.Intn(4) == 0 {
				b.Metadata.Flags[i] = invalid[rng.Intn(len(invalid))]
			}
		}
		chain = append(chain, b)
		prev = b.Header.Hash()
	}
	return chain
}

// openIndexDB opens the persist engine a log-backed ledger keeps its index
// in, as a peer's world state would be.
func openIndexDB(t *testing.T, dir string) *statedb.DB {
	t.Helper()
	db, err := statedb.NewWith(storage.Config{Engine: storage.EnginePersist, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// commitLogged runs the committer's Stage / state batch / Append sequence
// with an empty write set.
func commitLogged(t *testing.T, l *Ledger, db *statedb.DB, b *Block) {
	t.Helper()
	index, err := l.Stage(b)
	if err != nil {
		t.Fatalf("stage block %d: %v", b.Header.Number, err)
	}
	if b.Header.Number > 0 { // genesis writes no state
		db.ApplyBlockAt(nil, b.Header.Number, index...)
	}
	if err := l.Append(b); err != nil {
		t.Fatalf("append block %d: %v", b.Header.Number, err)
	}
}

// enc is a block's canonical encoding as a comparable string.
func enc(b *Block) string { return string(b.AppendTo(nil)) }

func encAll(blocks []*Block) []string {
	out := make([]string, len(blocks))
	for i, b := range blocks {
		out[i] = enc(b)
	}
	return out
}

// assertSameLedger compares every read a ledger offers across the two
// backings. Blocks compare by their canonical encoding, the form both
// replicas and the block file agree on.
func assertSameLedger(t *testing.T, rng *rand.Rand, want, got *Ledger, chain []*Block) {
	t.Helper()
	if want.Height() != got.Height() || want.TipHash() != got.TipHash() {
		t.Fatalf("height/tip: memory %d %x, log %d %x", want.Height(), want.TipHash(), got.Height(), got.TipHash())
	}
	if want.Stats() != got.Stats() {
		t.Fatalf("stats: memory %+v, log %+v", want.Stats(), got.Stats())
	}
	if err := got.VerifyChain(); err != nil {
		t.Fatalf("log-backed VerifyChain: %v", err)
	}
	height := want.Height()
	for n := uint64(0); n <= height; n++ {
		wb, werr := want.GetBlock(n)
		gb, gerr := got.GetBlock(n)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("GetBlock(%d): memory err %v, log err %v", n, werr, gerr)
		}
		if werr == nil && enc(wb) != enc(gb) {
			t.Fatalf("GetBlock(%d) differs", n)
		}
	}
	ids := []string{"no-such-tx"}
	for _, b := range chain {
		for i := range b.Txs {
			ids = append(ids, b.Txs[i].ID)
		}
	}
	for _, id := range ids {
		wBlock, wIdx, wFlag, wOK := want.TxLocation(id)
		gBlock, gIdx, gFlag, gOK := got.TxLocation(id)
		if wBlock != gBlock || wIdx != gIdx || wFlag != gFlag || wOK != gOK {
			t.Fatalf("TxLocation(%s): memory %d/%d/%s/%v, log %d/%d/%s/%v", id, wBlock, wIdx, wFlag, wOK, gBlock, gIdx, gFlag, gOK)
		}
		if want.HasTx(id) != got.HasTx(id) {
			t.Fatalf("HasTx(%s) differs", id)
		}
		wTx, wF, wB, werr := want.GetTx(id)
		gTx, gF, gB, gerr := got.GetTx(id)
		if (werr == nil) != (gerr == nil) || wF != gF || wB != gB {
			t.Fatalf("GetTx(%s): memory %s/%d/%v, log %s/%d/%v", id, wF, wB, werr, gF, gB, gerr)
		}
		if werr != nil {
			continue
		}
		if !bytes.Equal(wTx.Bytes(), gTx.Bytes()) {
			t.Fatalf("GetTx(%s) differs", id)
		}
		wBlk, _ := want.GetBlock(wB)
		gBlk, _ := got.GetBlock(gB)
		wProof, werr := wBlk.TxProof(wIdx)
		gProof, gerr := gBlk.TxProof(gIdx)
		if werr != nil || gerr != nil || !reflect.DeepEqual(wProof, gProof) {
			t.Fatalf("TxProof(%s) differs (%v, %v)", id, werr, gerr)
		}
		if !gBlk.VerifyTxInclusion(gTx, gProof) {
			t.Fatalf("TxProof(%s) from the log does not verify", id)
		}
	}
	var wSeq, gSeq []string
	want.Iterate(func(b *Block) bool { wSeq = append(wSeq, enc(b)); return true })
	got.Iterate(func(b *Block) bool { gSeq = append(gSeq, enc(b)); return true })
	if !reflect.DeepEqual(wSeq, gSeq) {
		t.Fatal("Iterate differs")
	}
	stop := 0
	got.Iterate(func(*Block) bool { stop++; return stop < 2 })
	if height >= 2 && stop != 2 {
		t.Fatalf("Iterate visited %d blocks after fn returned false at 2", stop)
	}
	for k := 0; k < 8; k++ {
		from, max := uint64(rng.Intn(int(height)+2)), rng.Intn(5)
		wPage, werr := want.BlocksFrom(from, max)
		gPage, gerr := got.BlocksFrom(from, max)
		if werr != nil || gerr != nil || !reflect.DeepEqual(encAll(wPage), encAll(gPage)) {
			t.Fatalf("BlocksFrom(%d, %d) differs (%v, %v)", from, max, werr, gerr)
		}
	}
	var wDump, gDump bytes.Buffer
	if err := want.Export(&wDump); err != nil {
		t.Fatal(err)
	}
	if err := got.Export(&gDump); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wDump.Bytes(), gDump.Bytes()) {
		t.Fatal("Export bytes differ")
	}
}

// TestLogBackedEquivalence drives random chains into an in-memory ledger
// and a log-backed one, closing and reopening the latter (state engine
// included) at every block boundary, and requires every read to agree.
func TestLogBackedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			chain := randomChain(t, rng, 10+rng.Intn(10))
			dir := t.TempDir()
			path := filepath.Join(dir, "blocks.wal")
			ram := New()
			for i, b := range chain {
				db := openIndexDB(t, dir)
				logged, err := Open(path, db)
				if err != nil {
					t.Fatalf("reopen before block %d: %v", i, err)
				}
				if io := logged.IOStats(); len(logged.Tail()) != 0 || (i > 1 && io.OpenDecoded != 0) {
					t.Fatalf("clean reopen before block %d decoded %d blocks, %d await replay", i, io.OpenDecoded, len(logged.Tail()))
				}
				if logged.Height() != ram.Height() || logged.TipHash() != ram.TipHash() || logged.Stats() != ram.Stats() {
					t.Fatalf("reopen before block %d: height %d stats %+v, want %d %+v", i, logged.Height(), logged.Stats(), ram.Height(), ram.Stats())
				}
				if err := ram.Append(b); err != nil {
					t.Fatal(err)
				}
				commitLogged(t, logged, db, b)
				if i%4 == 3 || i == len(chain)-1 {
					assertSameLedger(t, rng, ram, logged, chain[:i+1])
				}
				if err := logged.Close(); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestLogBackedCacheCountsReads: a block lookup reads the file once and
// then hits the cache; scans bypass it.
func TestLogBackedCacheCountsReads(t *testing.T) {
	chain := randomChain(t, rand.New(rand.NewSource(9)), 6)
	dir := t.TempDir()
	db := openIndexDB(t, dir)
	defer db.Close()
	l, err := Open(filepath.Join(dir, "blocks.wal"), db)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, b := range chain {
		commitLogged(t, l, db, b)
	}
	// Fsyncs count the write side (one per block under DurabilityAlways);
	// every other counter is read-path I/O and must still be zero.
	if io := l.IOStats(); io.CacheHits != 0 || io.CacheMisses != 0 || io.BlockReads != 0 || io.OpenDecoded != 0 {
		t.Fatalf("committing touched the read path: %+v", io)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.GetBlock(4); err != nil {
			t.Fatal(err)
		}
	}
	if io := l.IOStats(); io.CacheMisses != 1 || io.CacheHits != 2 || io.BlockReads != 1 {
		t.Fatalf("three lookups of one block: %+v", io)
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	if io := l.IOStats(); io.BlockReads != 1+int64(len(chain)) || io.CacheMisses != 1 {
		t.Fatalf("after a full scan: %+v", io)
	}
}

// loggedFixture commits chain into dir. With crashLast, the last block is
// staged — appended to the block file — but its state batch never lands,
// which is what a kill between the two leaves on disk.
func loggedFixture(t *testing.T, dir string, chain []*Block, crashLast bool) {
	t.Helper()
	db := openIndexDB(t, dir)
	l, err := Open(filepath.Join(dir, "blocks.wal"), db)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range chain {
		if crashLast && i == len(chain)-1 {
			if _, err := l.Stage(b); err != nil {
				t.Fatal(err)
			}
			break
		}
		commitLogged(t, l, db, b)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogBackedTailDamage cuts the block file and flips a bit at every
// offset of a last frame that sits above the savepoint. Every variant must
// open cleanly at the savepoint height — the damaged frame is a torn tail,
// dropped and truncated away — with only the intact file offering the
// block for replay.
func TestLogBackedTailDamage(t *testing.T) {
	chain := randomChain(t, rand.New(rand.NewSource(5)), 6)
	for len(chain[len(chain)-1].Txs) == 0 { // a last frame worth sweeping
		chain = randomChain(t, rand.New(rand.NewSource(int64(len(chain)))), len(chain)+1)
	}
	dir := t.TempDir()
	loggedFixture(t, dir, chain, true)
	path := filepath.Join(dir, "blocks.wal")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db := openIndexDB(t, dir) // Open only reads it, so one handle serves every variant
	defer db.Close()
	probe, err := Open(path, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Tail()) != 1 || probe.IOStats().OpenDecoded != 1 {
		t.Fatalf("intact file: %d blocks await replay, %d decoded; want 1, 1", len(probe.Tail()), probe.IOStats().OpenDecoded)
	}
	lastStart := probe.end
	wantHeight, wantTip := probe.Height(), probe.TipHash()
	probe.Close()
	if wantHeight != uint64(len(chain)-1) {
		t.Fatalf("savepoint height %d, want %d", wantHeight, len(chain)-1)
	}

	check := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, db)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer l.Close()
		if l.Height() != wantHeight || l.TipHash() != wantTip || len(l.Tail()) != 0 {
			t.Fatalf("%s: height %d, %d await replay", name, l.Height(), len(l.Tail()))
		}
		if st, err := os.Stat(path); err != nil || st.Size() != lastStart {
			t.Fatalf("%s: file is %d bytes after open, want the torn frame cut at %d", name, st.Size(), lastStart)
		}
		if err := l.VerifyChain(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for cut := lastStart + 1; cut < int64(len(full)); cut++ {
		check(fmt.Sprintf("cut at %d", cut), full[:cut])
	}
	for off := lastStart; off < int64(len(full)); off++ {
		flipped := append([]byte(nil), full...)
		flipped[off] ^= 0x10
		check(fmt.Sprintf("flip at %d", off), flipped)
	}
}

// TestLogBackedDamageBelowSavepoint flips a bit in a frame the savepoint
// covers. Open reads nothing there, so it succeeds; every read of the
// damaged block, and every scan across it, must fail loudly, while the
// other blocks stay readable.
func TestLogBackedDamageBelowSavepoint(t *testing.T) {
	chain := randomChain(t, rand.New(rand.NewSource(6)), 8)
	dir := t.TempDir()
	loggedFixture(t, dir, chain, false)
	path := filepath.Join(dir, "blocks.wal")
	db := openIndexDB(t, dir)
	defer db.Close()

	l, err := Open(path, db)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 3
	start, err := l.offsetOf(victim)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[start+12] ^= 0x01 // inside the victim's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(path, db)
	if err != nil {
		t.Fatalf("open over damage below the savepoint: %v", err)
	}
	defer l.Close()
	if l.Height() != uint64(len(chain)) || l.IOStats().OpenDecoded != 0 {
		t.Fatalf("height %d, %d decoded at open", l.Height(), l.IOStats().OpenDecoded)
	}
	if _, err := l.GetBlock(victim); err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("GetBlock(%d) over a flipped bit: %v", victim, err)
	}
	for n := uint64(0); n < l.Height(); n++ {
		if _, err := l.GetBlock(n); (err != nil) != (n == victim) {
			t.Fatalf("GetBlock(%d): %v", n, err)
		}
	}
	if err := l.VerifyChain(); err == nil {
		t.Fatal("VerifyChain passed over a damaged block")
	}
	if err := l.Export(&bytes.Buffer{}); err == nil {
		t.Fatal("Export passed over a damaged block")
	}
	if _, err := l.BlocksFrom(victim-1, 0); err == nil {
		t.Fatal("BlocksFrom passed over a damaged block")
	}
	if page, err := l.BlocksFrom(victim+1, 0); err != nil || len(page) != len(chain)-victim-1 {
		t.Fatalf("BlocksFrom above the damage: %d blocks, %v", len(page), err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Iterate walked over a damaged block")
			}
		}()
		l.Iterate(func(*Block) bool { return true })
	}()
}

// TestLogBackedStageOrder: the log-backed commit protocol refuses to skip
// a step.
func TestLogBackedStageOrder(t *testing.T) {
	chain := randomChain(t, rand.New(rand.NewSource(7)), 4)
	dir := t.TempDir()
	loggedFixture(t, dir, chain, true)
	db := openIndexDB(t, dir)
	defer db.Close()
	l, err := Open(filepath.Join(dir, "blocks.wal"), db)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tail := l.Tail()
	if len(tail) != 1 {
		t.Fatalf("%d blocks await replay, want 1", len(tail))
	}
	if err := l.Append(tail[0]); err == nil {
		t.Fatal("appended a block that was not staged")
	}
	other := NewBlock(tail[0].Header.Number, l.TipHash(), nil, time.Unix(1, 0).UTC())
	if _, err := l.Stage(other); err == nil {
		t.Fatal("staged a fresh block over a logged one awaiting replay")
	}
	commitLogged(t, l, db, tail[0])
	if l.Height() != uint64(len(chain)) || len(l.Tail()) != 0 {
		t.Fatalf("after replay: height %d, %d await replay", l.Height(), len(l.Tail()))
	}
	if _, _, _, err := l.GetTx("no-such-tx"); err == nil {
		t.Fatal("found a transaction that was never committed")
	}
}

// TestLogBackedConcurrentReaders commits blocks while other goroutines
// look blocks and transactions up, scan and verify: readers must only ever
// see a consistent prefix of the chain (run under -race).
func TestLogBackedConcurrentReaders(t *testing.T) {
	chain := randomChain(t, rand.New(rand.NewSource(11)), 60)
	dir := t.TempDir()
	db := openIndexDB(t, dir)
	defer db.Close()
	l, err := Open(filepath.Join(dir, "blocks.wal"), db)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	commitLogged(t, l, db, chain[0])

	done := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		go func(r int) {
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				height := l.Height()
				n := uint64(rng.Intn(int(height)))
				b, err := l.GetBlock(n)
				if err != nil || b.Header.Number != n {
					errs <- fmt.Errorf("GetBlock(%d) below height %d: %v", n, height, err)
					return
				}
				for i := range b.Txs {
					if at, idx, _, ok := l.TxLocation(b.Txs[i].ID); !ok || at != n || idx != i {
						errs <- fmt.Errorf("TxLocation of block %d tx %d: %d/%d/%v", n, i, at, idx, ok)
						return
					}
				}
				if s := l.Stats(); s.Height < height {
					errs <- fmt.Errorf("stats height %d went below %d", s.Height, height)
					return
				}
				if r == 0 {
					if err := l.VerifyChain(); err != nil {
						errs <- err
						return
					}
				}
				if page, err := l.BlocksFrom(n, 3); err != nil || len(page) == 0 || page[0].Header.Number != n {
					errs <- fmt.Errorf("BlocksFrom(%d, 3): %d blocks, %v", n, len(page), err)
					return
				}
			}
		}(r)
	}
	for _, b := range chain[1:] {
		commitLogged(t, l, db, b)
	}
	close(done)
	for r := 0; r < 4; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestOpenRefusesStateWithoutChainRecord: a state engine that recorded a
// savepoint without the ledger's chain record (a directory written before
// the block index existed) must not open as an empty or partial chain.
func TestOpenRefusesStateWithoutChainRecord(t *testing.T) {
	dir := t.TempDir()
	db := openIndexDB(t, dir)
	defer db.Close()
	db.ApplyBlockAt(nil, 1)
	if _, err := Open(filepath.Join(dir, "blocks.wal"), db); err == nil || !strings.Contains(err.Error(), "chain record") {
		t.Fatalf("opened over a savepoint with no chain record: %v", err)
	}
}
