package ledger

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
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
	"socialchain/internal/walframe"
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
	db, err := statedb.NewWith(storage.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// commitLogged runs the committer's Stage / state batch / Append sequence
// with an empty write set, in the world state the ledger is indexed in.
// Like a peer's genesis, block 0 writes no state when it has no
// transactions, so a reopen adopts it from the file.
func commitLogged(t *testing.T, l *Ledger, b *Block) {
	t.Helper()
	index, err := l.Stage(b)
	if err != nil {
		t.Fatalf("stage block %d: %v", b.Header.Number, err)
	}
	if b.Header.Number > 0 || len(b.Txs) > 0 {
		l.index.ApplyBlockAt(nil, b.Header.Number, index...)
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

// txAt is where the model puts a transaction: block, index, flag.
type txAt struct {
	block uint64
	idx   int
	flag  ValidationCode
}

// modelStats is what Stats must report for chain.
func modelStats(chain []*Block) Stats {
	s := Stats{Height: uint64(len(chain))}
	for _, b := range chain {
		s.TotalTxs += len(b.Txs)
		s.ValidTxs += countValid(b)
	}
	return s
}

// modelTip is the tip hash of chain.
func modelTip(chain []*Block) [32]byte {
	if len(chain) == 0 {
		return [32]byte{}
	}
	return chain[len(chain)-1].Header.Hash()
}

// assertMatchesModel compares every read the ledger offers with a model
// derived from the chain committed to it: block n is chain[n], a
// transaction sits where the chain puts it, and the export is the JSON of
// each block's canonical round-trip. Blocks compare by their canonical
// encoding, the form replicas and the block file agree on.
func assertMatchesModel(t *testing.T, rng *rand.Rand, got *Ledger, chain []*Block) {
	t.Helper()
	height := uint64(len(chain))
	if got.Height() != height || got.TipHash() != modelTip(chain) {
		t.Fatalf("height/tip: %d %x, want %d %x", got.Height(), got.TipHash(), height, modelTip(chain))
	}
	if got.Stats() != modelStats(chain) {
		t.Fatalf("stats: %+v, want %+v", got.Stats(), modelStats(chain))
	}
	if err := got.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	for n := uint64(0); n < height; n++ {
		b, err := got.GetBlock(n)
		if err != nil || enc(b) != enc(chain[n]) {
			t.Fatalf("GetBlock(%d) differs (%v)", n, err)
		}
	}
	if _, err := got.GetBlock(height); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetBlock(%d) at the height: %v", height, err)
	}
	where := map[string]txAt{}
	for n, b := range chain {
		for i := range b.Txs {
			where[b.Txs[i].ID] = txAt{block: uint64(n), idx: i, flag: b.Metadata.Flags[i]}
		}
	}
	if _, _, _, ok := got.TxLocation("no-such-tx"); ok || got.HasTx("no-such-tx") {
		t.Fatal("found a transaction that was never committed")
	}
	if _, _, _, err := got.GetTx("no-such-tx"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetTx of an unknown transaction: %v", err)
	}
	for id, want := range where {
		block, idx, flag, ok := got.TxLocation(id)
		if !ok || (txAt{block, idx, flag}) != want || !got.HasTx(id) {
			t.Fatalf("TxLocation(%s): %d/%d/%s/%v, want %+v", id, block, idx, flag, ok, want)
		}
		tx, flag, block, err := got.GetTx(id)
		if err != nil || flag != want.flag || block != want.block {
			t.Fatalf("GetTx(%s): %s/%d/%v, want %+v", id, flag, block, err, want)
		}
		if !bytes.Equal(tx.Bytes(), chain[block].Txs[want.idx].Bytes()) {
			t.Fatalf("GetTx(%s) differs", id)
		}
		gBlk, _ := got.GetBlock(block)
		wProof, werr := chain[block].TxProof(want.idx)
		gProof, gerr := gBlk.TxProof(idx)
		if werr != nil || gerr != nil || !reflect.DeepEqual(wProof, gProof) {
			t.Fatalf("TxProof(%s) differs (%v, %v)", id, werr, gerr)
		}
		if !gBlk.VerifyTxInclusion(tx, gProof) {
			t.Fatalf("TxProof(%s) from the log does not verify", id)
		}
	}
	var seq []string
	got.Iterate(func(b *Block) bool { seq = append(seq, enc(b)); return true })
	if !reflect.DeepEqual(seq, encAll(chain)) {
		t.Fatal("Iterate differs")
	}
	stop := 0
	got.Iterate(func(*Block) bool { stop++; return stop < 2 })
	if height >= 2 && stop != 2 {
		t.Fatalf("Iterate visited %d blocks after fn returned false at 2", stop)
	}
	for k := 0; k < 8; k++ {
		from, max := uint64(rng.Intn(int(height)+2)), rng.Intn(5)
		want := chain[min(from, height):]
		if max > 0 && len(want) > max {
			want = want[:max]
		}
		page, err := got.BlocksFrom(from, max)
		if err != nil || !reflect.DeepEqual(encAll(page), encAll(want)) {
			t.Fatalf("BlocksFrom(%d, %d) differs (%v)", from, max, err)
		}
	}
	var wantDump, dump bytes.Buffer
	for _, b := range chain {
		rt, err := DecodeBlock(b.AppendTo(nil))
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(rt)
		if err != nil {
			t.Fatal(err)
		}
		wantDump.Write(append(line, '\n'))
	}
	if err := got.Export(&dump); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantDump.Bytes(), dump.Bytes()) {
		t.Fatal("Export bytes differ from the canonical round-trip's JSON")
	}
}

// TestLogBackedEquivalence drives random chains into a log-backed ledger,
// closing and reopening it (state engine included) at every block
// boundary, and requires every read to agree with the chain itself.
func TestLogBackedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			chain := randomChain(t, rng, 10+rng.Intn(10))
			dir := t.TempDir()
			path := filepath.Join(dir, "blocks.wal")
			for i, b := range chain {
				db := openIndexDB(t, dir)
				logged, err := Open(path, db)
				if err != nil {
					t.Fatalf("reopen before block %d: %v", i, err)
				}
				if io := logged.IOStats(); len(logged.Tail()) != 0 || (i > 1 && io.OpenDecoded != 0) {
					t.Fatalf("clean reopen before block %d decoded %d blocks, %d await replay", i, io.OpenDecoded, len(logged.Tail()))
				}
				if logged.Height() != uint64(i) || logged.TipHash() != modelTip(chain[:i]) || logged.Stats() != modelStats(chain[:i]) {
					t.Fatalf("reopen before block %d: height %d stats %+v, want %+v", i, logged.Height(), logged.Stats(), modelStats(chain[:i]))
				}
				commitLogged(t, logged, b)
				if i%4 == 3 || i == len(chain)-1 {
					assertMatchesModel(t, rng, logged, chain[:i+1])
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
		commitLogged(t, l, b)
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
		commitLogged(t, l, b)
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

// rewriteBlock replaces block n's frame in the block log at path with the
// block mutate makes of it, sealed under a fresh CRC, and moves the
// offsets db's index holds for the frames after it and the log's end: the
// files a writer that logged the mutated block would have left. The
// ledger over them must be closed.
func rewriteBlock(t *testing.T, path string, db *statedb.DB, n uint64, mutate func(*Block)) {
	t.Helper()
	rec, ok := db.Reserved(chainKey)
	if !ok {
		t.Fatal("no chain record")
	}
	height := binary.BigEndian.Uint64(rec)
	l := &Ledger{index: db} // offsetOf reads only the index
	off, err := l.offsetOf(n)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := walframe.Read(bytes.NewReader(data[off:]), nil, int64(len(data))-off)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBlock(payload[1:])
	if err != nil {
		t.Fatal(err)
	}
	mutate(b)
	frame := b.AppendTo(append(make([]byte, walframe.HeaderLen), logFormat))
	walframe.Seal(frame)
	rest := data[off+walframe.HeaderLen+int64(len(payload)):]
	delta := int64(len(frame)) - walframe.HeaderLen - int64(len(payload))
	if err := os.WriteFile(path, append(append(data[:off:off], frame...), rest...), 0o644); err != nil {
		t.Fatal(err)
	}
	var moved []statedb.ReservedWrite
	for m := n + 1; m < height; m++ {
		o, err := l.offsetOf(m)
		if err != nil {
			t.Fatal(err)
		}
		moved = append(moved, statedb.ReservedWrite{Key: blockKey(m), Value: binary.BigEndian.AppendUint64(nil, uint64(o+delta))})
	}
	rec = bytes.Clone(rec)
	binary.BigEndian.PutUint64(rec[24:], uint64(int64(binary.BigEndian.Uint64(rec[24:]))+delta))
	db.ApplyBlockAt(nil, height-1, append(moved, statedb.ReservedWrite{Key: chainKey, Value: rec})...)
}

// TestLogBackedShortFlagListBelowSavepoint rewrites a frame the savepoint
// covers with one flag dropped and its CRC recomputed. The header hash
// does not cover the flags, so only the read's own check keeps a reader
// that indexes flags by transaction (the explorer) from running off the
// list: GetBlock and VerifyChain must fail naming the block, and the
// blocks around it stay readable.
func TestLogBackedShortFlagListBelowSavepoint(t *testing.T) {
	chain := randomChain(t, rand.New(rand.NewSource(6)), 8)
	victim := uint64(0)
	for n := 1; n < len(chain)-1 && victim == 0; n++ {
		if len(chain[n].Txs) > 0 {
			victim = uint64(n)
		}
	}
	if victim == 0 {
		t.Fatal("fixture: no block with transactions below the last")
	}
	dir := t.TempDir()
	loggedFixture(t, dir, chain, false)
	path := filepath.Join(dir, "blocks.wal")
	db := openIndexDB(t, dir)
	defer db.Close()
	rewriteBlock(t, path, db, victim, func(b *Block) { b.Metadata.Flags = b.Metadata.Flags[1:] })

	l, err := Open(path, db)
	if err != nil {
		t.Fatalf("open over a short flag list below the savepoint: %v", err)
	}
	defer l.Close()
	want := fmt.Sprintf("block %d has %d flags for %d txs", victim, len(chain[victim].Txs)-1, len(chain[victim].Txs))
	if _, err := l.GetBlock(victim); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("GetBlock(%d): %v, want an error containing %q", victim, err, want)
	}
	if err := l.VerifyChain(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("VerifyChain: %v, want an error containing %q", err, want)
	}
	for n := uint64(0); n < l.Height(); n++ {
		if b, err := l.GetBlock(n); n != victim && (err != nil || enc(b) != enc(chain[n])) {
			t.Fatalf("GetBlock(%d) beside the damage: %v", n, err)
		}
	}
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
	commitLogged(t, l, tail[0])
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
	commitLogged(t, l, chain[0])

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
		commitLogged(t, l, b)
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
