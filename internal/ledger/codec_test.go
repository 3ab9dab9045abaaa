package ledger

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"socialchain/internal/codec/codectest"
	"socialchain/internal/msp"
	"socialchain/internal/statedb"
	"socialchain/internal/walframe"
)

// fixtureTx builds a transaction shaped like the store path's: a client
// envelope around calls addData-style calls, each with two arguments (a
// CID and ~0.9 KB of metadata, of which the envelope keeps the hashes) and,
// in the write set, a record, a chain head, three index entries and the
// trust and audit rows, endorsed by three peers (about 3.2 KB per call, as
// core.StoreFrame commits). Everything in it is
// derived from fixed seeds, so its encoding is the same in every process.
func fixtureTx(calls int) Transaction {
	client := msp.NewSignerFromSeed("fixture", "city", "cam-0", msp.RoleTrustedSource)
	rng := rand.New(rand.NewSource(int64(calls)))
	const alphabet = `abcdefghijklmnopqrstuvwxyz0123456789":,{}`
	blob := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	tx := Transaction{
		ID:        fmt.Sprintf("%064x", 0xabcdef00+calls),
		ChannelID: "traffic-channel",
		Creator:   client.Identity,
		Response:  blob(60 * calls),
		Timestamp: time.Unix(1_700_000_000, 123456789).UTC(),
		Trace:     "00f1e2d3c4b5a697",
	}
	for c := 0; c < calls; c++ {
		id := fmt.Sprintf("%s-%d", tx.ID, c)
		call := TxPayload{Chaincode: "data", Fn: "addData", ArgHashes: HashArgs([][]byte{[]byte("bafy" + id), blob(900)})}
		if calls == 1 {
			tx.Payload = call
		} else {
			tx.Payload.Batch = append(tx.Payload.Batch, call)
		}
		tx.RWSet.Reads = append(tx.RWSet.Reads,
			statedb.ReadItem{Namespace: "data", Key: "head~city/cam-0", Version: statedb.Version{BlockNum: 41, TxNum: uint64(c)}, Exists: true},
			statedb.ReadItem{Namespace: "users", Key: "user~city/cam-0", Version: statedb.Version{BlockNum: 2}, Exists: true})
		tx.RWSet.Writes = append(tx.RWSet.Writes,
			statedb.WriteItem{Namespace: "data", Key: "rec~" + id, Value: blob(1100)},
			statedb.WriteItem{Namespace: "data", Key: "head~city/cam-0", Value: blob(90)},
			statedb.WriteItem{Namespace: "data", Key: "\x00label\x00car\x00" + id + "\x00", Value: []byte{0}},
			statedb.WriteItem{Namespace: "data", Key: "\x00source\x00city/cam-0\x00" + id + "\x00", Value: []byte{0}},
			statedb.WriteItem{Namespace: "data", Key: "\x00camera\x00cam-0\x00" + id + "\x00", Value: []byte{0}},
			statedb.WriteItem{Namespace: "data", Key: "refs/recent", Value: blob(140)},
			statedb.WriteItem{Namespace: "trust", Key: "score/city/cam-0", Value: blob(190)},
			statedb.WriteItem{Namespace: "validation", Key: "audit/" + id, Value: blob(200)})
		tx.Events = append(tx.Events, Event{Name: "data.added", Payload: []byte(id)})
	}
	digest := tx.Digest()
	for i := 0; i < 3; i++ {
		peer := msp.NewSignerFromSeed("fixture", "org", fmt.Sprintf("peer%d", i), msp.RoleMember)
		tx.Endorsements = append(tx.Endorsements, msp.Endorsement{Endorser: peer.Identity, Signature: peer.Sign(digest)}.Ref())
	}
	tx.Signature = client.Sign(tx.SigningBytes())
	return tx
}

// fixtureBlock is block 42 holding one fixtureTx(calls).
func fixtureBlock(calls int) *Block {
	return NewBlock(42, [32]byte{1, 2, 3}, []Transaction{fixtureTx(calls)}, time.Unix(1_700_000_000, 123456789).UTC())
}

// goldenTx is small enough to read: the layout DESIGN.md tabulates, byte
// for byte. A change to it is a format break and needs a new logFormat.
func goldenTx() Transaction {
	return Transaction{
		ID:        "tx1",
		ChannelID: "ch",
		Creator:   msp.Identity{Org: "o", Name: "n", Role: msp.RoleMember, PubKey: []byte{0xAA, 0xBB}},
		Payload:   TxPayload{Chaincode: "cc", Fn: "put", ArgHashes: HashArgs([][]byte{[]byte("k"), []byte("v")})},
		Response:  []byte("ok"),
		RWSet: statedb.RWSet{
			Reads:  []statedb.ReadItem{{Namespace: "cc", Key: "k", Version: statedb.Version{BlockNum: 300, TxNum: 1}, Exists: true}},
			Writes: []statedb.WriteItem{{Namespace: "cc", Key: "k", Value: []byte("v")}, {Namespace: "cc", Key: "old", IsDelete: true}},
		},
		Events:       []Event{{Name: "e", Payload: []byte("p")}},
		Endorsements: []msp.EndorsementRef{{Signer: msp.Fingerprint{0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8}, Signature: []byte{0x51, 0x52}}},
		Timestamp:    time.Unix(1, 2),
		Signature:    []byte{0x53},
		Trace:        "t",
	}
}

const (
	goldenTxHex = "03747831" + "026368" + // id, channel
		"016f" + "016e" + "066d656d626572" + "02aabb" + // creator: org, name, role, key
		"026363" + "03707574" + "02" + // call: chaincode, fn, 2 argument hashes
		"8254c329a92850f6d539dd376f4816ee2764517da5e0235514af433164480d7a" + // SHA-256("k")
		"4c94485e0c21ae6c41ce1dfe7b6bfaceea5ab68e40a2476f50208e526f506080" + // SHA-256("v")
		"00" + // no batch
		"026f6b" + // response
		"01" + "026363" + "016b" + "ac02" + "01" + "01" + // 1 read: ns, key, block 300, tx 1, exists
		"02" + "026363" + "016b" + "0176" + "00" + "026363" + "036f6c64" + "00" + "01" + // 2 writes
		"01" + "0165" + "0170" + // 1 event
		"01" + "f1f2f3f4f5f6f7f8" + "025152" + // 1 endorsement: key fingerprint, signature
		"000000003b9aca02" + // timestamp: 1 s + 2 ns
		"0153" + "0174" // signature, trace
	goldenBlockHex = "07" + // number
		"0900000000000000000000000000000000000000000000000000000000000000" + // prev hash
		"20fc62c8ab1bd8f5bb4c5b6cf8a48e7a8ae5d1b50aac4b1af2a9f17a5bf9b8a7" + // data hash (not checked by decode)
		"000000003b9aca02" + // timestamp
		"01" + goldenTxHex + // 1 tx
		"0101" // 1 flag: MVCC conflict
)

func goldenBlock() *Block {
	b := &Block{Header: BlockHeader{Number: 7, PrevHash: [32]byte{9}, Timestamp: time.Unix(1, 2)}, Txs: []Transaction{goldenTx()}}
	h, _ := hex.DecodeString("20fc62c8ab1bd8f5bb4c5b6cf8a48e7a8ae5d1b50aac4b1af2a9f17a5bf9b8a7")
	copy(b.Header.DataHash[:], h)
	b.Metadata.Flags = []ValidationCode{MVCCConflict}
	return b
}

// TestGoldenEncoding pins the byte layout of a transaction and a block.
func TestGoldenEncoding(t *testing.T) {
	tx := goldenTx()
	if got := hex.EncodeToString(tx.Bytes()); got != goldenTxHex {
		t.Fatalf("transaction layout changed:\n got %s\nwant %s", got, goldenTxHex)
	}
	if got := hex.EncodeToString(goldenBlock().AppendTo(nil)); got != goldenBlockHex {
		t.Fatalf("block layout changed:\n got %s\nwant %s", got, goldenBlockHex)
	}
	raw, _ := hex.DecodeString(goldenBlockHex)
	b, err := DecodeBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Txs[0]; got.ID != "tx1" || got.RWSet.Reads[0].Version.BlockNum != 300 || !got.RWSet.Writes[1].IsDelete ||
		!got.Timestamp.Equal(time.Unix(1, 2)) || b.Metadata.Flags[0] != MVCCConflict || b.Header.Number != 7 {
		t.Fatalf("golden block decoded to %+v", b)
	}
}

// randomTx fills every field a transaction has, or leaves it out: empty
// and nil slices, zero and non-UTC times, batched and plain payloads.
func randomTx(rng *rand.Rand) Transaction {
	bytesOf := func() []byte {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []byte{}
		}
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		return b
	}
	str := func() string { return string(bytesOf()) }
	ident := func() msp.Identity {
		return msp.Identity{Org: str(), Name: str(), Role: msp.Role(str()), PubKey: bytesOf()}
	}
	call := func() TxPayload {
		p := TxPayload{Chaincode: str(), Fn: str()}
		switch rng.Intn(3) {
		case 0:
			p.ArgHashes = []ArgHash{}
		case 1:
			for i := rng.Intn(4); i >= 0; i-- {
				p.ArgHashes = append(p.ArgHashes, HashArgs([][]byte{bytesOf()})[0])
			}
		}
		return p
	}
	zones := []*time.Location{time.UTC, time.FixedZone("east", 5*3600+1800), time.FixedZone("west", -8*3600)}
	tx := Transaction{ID: str(), ChannelID: str(), Creator: ident(), Payload: call(), Response: bytesOf(), Signature: bytesOf(), Trace: str()}
	if rng.Intn(5) > 0 {
		tx.Timestamp = time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))])
	}
	for i := rng.Intn(4); i > 0; i-- {
		tx.Payload.Batch = append(tx.Payload.Batch, call())
	}
	if rng.Intn(2) == 0 {
		tx.RWSet.Reads = []statedb.ReadItem{}
		tx.Events = []Event{}
	}
	for i := rng.Intn(4); i > 0; i-- {
		tx.RWSet.Reads = append(tx.RWSet.Reads, statedb.ReadItem{Namespace: str(), Key: str(), Version: statedb.Version{BlockNum: rng.Uint64() >> uint(rng.Intn(64)), TxNum: uint64(rng.Intn(300))}, Exists: rng.Intn(2) == 0})
		tx.RWSet.Writes = append(tx.RWSet.Writes, statedb.WriteItem{Namespace: str(), Key: str(), Value: bytesOf(), IsDelete: rng.Intn(4) == 0})
		tx.Events = append(tx.Events, Event{Name: str(), Payload: bytesOf()})
		tx.Endorsements = append(tx.Endorsements, msp.Endorsement{Endorser: ident(), Signature: bytesOf()}.Ref())
	}
	return tx
}

// TestEncodingRoundTripProperty: over randomized transactions and blocks,
// decode(encode(x)) encodes to the same bytes, keeps every value (nil and
// empty slices both come back nil, times come back Equal, in UTC), and the
// hashes built on the encoding — digest, Merkle leaf, header — survive.
func TestEncodingRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 400; i++ {
		tx := randomTx(rng)
		enc := tx.Bytes()
		got, err := DecodeTransaction(enc)
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), enc) {
			t.Fatalf("tx %d re-encodes differently", i)
		}
		if !got.Timestamp.Equal(tx.Timestamp) || got.Timestamp.Location() != time.UTC {
			t.Fatalf("tx %d timestamp %v came back %v", i, tx.Timestamp, got.Timestamp)
		}
		if got.ID != tx.ID || len(got.Payload.Batch) != len(tx.Payload.Batch) || len(got.RWSet.Writes) != len(tx.RWSet.Writes) ||
			!bytes.Equal(got.Digest(), tx.Digest()) || !bytes.Equal(got.SigningBytes(), tx.SigningBytes()) {
			t.Fatalf("tx %d lost a field", i)
		}
		if len(tx.Response) == 0 && got.Response != nil || len(tx.RWSet.Reads) == 0 && got.RWSet.Reads != nil {
			t.Fatalf("tx %d: an empty slice did not come back nil", i)
		}

		txs := []Transaction{tx, randomTx(rng)}[:rng.Intn(3)]
		b := NewBlock(rng.Uint64()>>uint(rng.Intn(64)), [32]byte{byte(i)}, txs, tx.Timestamp)
		for j := range b.Metadata.Flags {
			b.Metadata.Flags[j] = ValidationCode(rng.Intn(6))
		}
		benc := b.AppendTo(nil)
		gb, err := DecodeBlock(benc)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(gb.AppendTo(nil), benc) || gb.Header.Hash() != b.Header.Hash() || ComputeDataHash(gb.Txs) != b.Header.DataHash {
			t.Fatalf("block %d does not survive the round trip", i)
		}
	}
}

// checkDecode is the invariant every decoder here keeps on arbitrary
// input: it fails, or what it returns encodes back to exactly the input.
func checkDecode(t testing.TB, name string, in []byte, decode func([]byte) ([]byte, error)) {
	t.Helper()
	out, err := decode(in)
	if err == nil && !bytes.Equal(out, in) {
		t.Fatalf("%s: decoded without error but re-encodes to %d bytes that differ from the %d given", name, len(out), len(in))
	}
}

func decodeBlockBytes(p []byte) ([]byte, error) {
	b, err := DecodeBlock(p)
	if err != nil {
		return nil, err
	}
	return b.AppendTo(nil), nil
}

func decodeTxBytes(p []byte) ([]byte, error) {
	tx, err := DecodeTransaction(p)
	if err != nil {
		return nil, err
	}
	return tx.Bytes(), nil
}

// TestDecodeBlockEveryOffset cuts an encoded block at every offset and
// flips a bit at every offset. A cut never decodes (a whole value accounts
// for every byte); a flip decodes only to a block that encodes to the
// flipped bytes. Nothing panics.
func TestDecodeBlockEveryOffset(t *testing.T) {
	enc := fixtureBlock(2).AppendTo(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBlock(enc[:cut]); err == nil {
			t.Fatalf("block cut to %d of %d bytes decoded", cut, len(enc))
		}
	}
	for off := range enc {
		for _, bit := range []byte{0x01, 0x80} {
			flipped := append([]byte(nil), enc...)
			flipped[off] ^= bit
			checkDecode(t, fmt.Sprintf("flip %#x at %d", bit, off), flipped, decodeBlockBytes)
		}
	}
}

// TestDecodeRefusesOversizedCounts: a length or a count the input cannot
// hold is an error before anything is allocated for it — these inputs
// claim up to 2^62 items in a dozen bytes.
func TestDecodeRefusesOversizedCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	header := make([]byte, headerLen)
	for name, in := range map[string][]byte{
		"tx count":   append(append([]byte(nil), header...), huge...),
		"flag count": append(append(append([]byte(nil), header...), 0), huge...),
		"id length":  huge,
	} {
		if _, err := DecodeBlock(in); err == nil {
			t.Fatalf("%s: decoded", name)
		}
		if _, err := DecodeTransaction(in); err == nil {
			t.Fatalf("%s: decoded as a transaction", name)
		}
	}
}

func fuzzSeeds(f *testing.F, encs ...[]byte) {
	for _, enc := range encs {
		f.Add(enc)
		for cut := 1; cut < len(enc); cut += 97 {
			f.Add(enc[:cut])
		}
		for off := 0; off < len(enc); off += 131 {
			flipped := append([]byte(nil), enc...)
			flipped[off] ^= 0x10
			f.Add(flipped)
		}
	}
}

// Offsets into goldenTxHex's bytes: the argument-hash count (then two
// 32-byte hashes) and the endorsement count (then an 8-byte fingerprint).
const (
	goldenArgCountOff = 4 + 3 + 2 + 2 + 7 + 3 + 3 + 4
	goldenEndCountOff = goldenArgCountOff + 1 + 64 + 1 + 3 + 10 + 18 + 5
)

// malformedTxs are golden transactions damaged in the two fixed-width
// fields format 2 added and in the list that holds one of them. None may
// decode: a fixed-width field has no short form to fall back to.
func malformedTxs() map[string][]byte {
	golden := goldenTx()
	enc := golden.Bytes()
	without := func(off int) []byte {
		return append(append([]byte(nil), enc[:off]...), enc[off+1:]...)
	}
	withCount := func(off int, n uint64) []byte {
		out := binary.AppendUvarint(append([]byte(nil), enc[:off]...), n)
		return append(out, enc[off+1:]...)
	}
	return map[string][]byte{
		"arg-hash-31-bytes":     without(goldenArgCountOff + 1 + 5),
		"fingerprint-7-bytes":   without(goldenEndCountOff + 1 + 3),
		"endorsements-overlong": withCount(goldenEndCountOff, 200),
		"arg-hashes-overlong":   withCount(goldenArgCountOff, 1<<40),
	}
}

// TestDecodeRefusesMalformedFixedFields: see malformedTxs. The offsets are
// checked against the golden layout first, so the damage is where it says.
func TestDecodeRefusesMalformedFixedFields(t *testing.T) {
	golden := goldenTx()
	enc := golden.Bytes()
	if enc[goldenArgCountOff] != 2 || !bytes.Equal(enc[goldenArgCountOff+1:][:32], golden.Payload.ArgHashes[0][:]) ||
		enc[goldenEndCountOff] != 1 || !bytes.Equal(enc[goldenEndCountOff+1:][:8], golden.Endorsements[0].Signer[:]) {
		t.Fatal("golden offsets are off")
	}
	for name, in := range malformedTxs() {
		if tx, err := DecodeTransaction(in); err == nil {
			t.Errorf("%s decoded: %+v", name, tx)
		}
	}
}

func FuzzDecodeBlock(f *testing.F) {
	fuzzSeeds(f, goldenBlock().AppendTo(nil), fixtureBlock(1).AppendTo(nil), NewBlock(0, [32]byte{}, nil, time.Time{}).AppendTo(nil))
	f.Fuzz(func(t *testing.T, in []byte) { checkDecode(t, "block", in, decodeBlockBytes) })
}

func FuzzDecodeTransaction(f *testing.F) {
	golden, one, batch := goldenTx(), fixtureTx(1), fixtureTx(3)
	fuzzSeeds(f, golden.Bytes(), one.Bytes(), batch.Bytes())
	for _, in := range malformedTxs() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) { checkDecode(t, "transaction", in, decodeTxBytes) })
}

// TestFuzzCorpusCurrent: the committed seeds are encodings in this format.
func TestFuzzCorpusCurrent(t *testing.T) {
	golden, one, batch := goldenTx(), fixtureTx(1), fixtureTx(3)
	txs := map[string][]any{"golden": {golden.Bytes()}, "store-record": {one.Bytes()}, "batch-envelope": {batch.Bytes()}}
	for name, in := range malformedTxs() {
		txs[name] = []any{in}
	}
	codectest.Corpus(t, "FuzzDecodeTransaction", txs)

	gb := goldenBlock().AppendTo(nil)
	flipped := append([]byte(nil), gb...)
	flipped[headerLen-6] ^= 0x10 // in the header timestamp
	codectest.Corpus(t, "FuzzDecodeBlock", map[string][]any{
		"genesis":      {NewBlock(0, [32]byte{}, nil, time.Time{}).AppendTo(nil)},
		"golden":       {gb},
		"golden-cut":   {gb[:len(gb)*2/3]},
		"golden-flip":  {flipped},
		"store-record": {fixtureBlock(1).AppendTo(nil)},
	})
}

// TestLogRefusesOlderFormat: a block log in an earlier format — format 1,
// as the commit before format 2 wrote it (testdata/blocks-format1.wal: a
// genesis block and one transaction with its arguments and full endorser
// identities), or the JSON records of every build before that — fails to
// open, by either door, with an error that names the format it found and
// the one this build reads, and the file is left as it was.
func TestLogRefusesOlderFormat(t *testing.T) {
	format1, err := os.ReadFile(filepath.Join("testdata", "blocks-format1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	jsonFrame := append(make([]byte, walframe.HeaderLen), `{"header":{"number":0},"txs":null,"metadata":{"flags":[]}}`...)
	walframe.Seal(jsonFrame)
	for _, c := range []struct {
		name, found string
		log         []byte
	}{
		{"format 1", "is in format 1", format1},
		{"JSON", "holds JSON records", jsonFrame},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "blocks.wal")
		old := append(append([]byte(nil), c.log...), c.log[:20]...) // and a torn tail an open would cut
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(door string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), c.found) || !strings.Contains(err.Error(), "older build") ||
				!strings.Contains(err.Error(), "reads block-log format 2 only") {
				t.Fatalf("%s over a %s block log: %v", door, c.name, err)
			}
			if now, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(now, old) {
				t.Fatalf("%s touched the refused %s file (%v)", door, c.name, rerr)
			}
		}
		_, err := OpenLog(path)
		check("OpenLog", err)
		db := openIndexDB(t, dir)
		_, err = Open(path, db)
		check("Open", err)
		db.Close()
	}
}

// TestLogFirstRecordDamage: only a first record that is whole under
// another version byte is a log of another format. One torn into a
// zero-filled tail — a crash during the first append on a file system that
// extends before it writes — is a torn tail like any other and is cut;
// zeros with a whole record after them are corruption and refused.
func TestLogFirstRecordDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.wal")
	frame := goldenBlock().AppendTo(append(make([]byte, walframe.HeaderLen), logFormat))
	walframe.Seal(frame)

	for _, keep := range []int{0, 4, walframe.HeaderLen, walframe.HeaderLen + 1, len(frame) / 2} {
		torn := append(append([]byte(nil), frame[:keep]...), make([]byte, len(frame)-keep+64)...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(path)
		if err != nil {
			t.Fatalf("first record torn after %d bytes into zeros: %v", keep, err)
		}
		if st, _ := os.Stat(path); l.Height() != 0 || st.Size() != 0 {
			t.Fatalf("torn after %d bytes: height %d, %d bytes left; want an empty log", keep, l.Height(), st.Size())
		}
		l.Close()
	}

	// Zeros in place of the first record, with a committed record after
	// them, are corruption: refused, and the file left as it was.
	zeroed := append(make([]byte, len(frame)), frame...)
	if err := os.WriteFile(path, zeroed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path); err == nil || !strings.Contains(err.Error(), "committed frames after it") {
		t.Fatalf("OpenLog over a zeroed first record before a whole one: %v", err)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, zeroed) {
		t.Fatalf("OpenLog touched the corrupt file (%v)", err)
	}

	other := append([]byte(nil), frame...)
	other[walframe.HeaderLen] = logFormat + 1
	walframe.Seal(other)
	other = append(other, frame[:20]...)
	if err := os.WriteFile(path, other, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path); err == nil || !strings.Contains(err.Error(), "not in format 2") {
		t.Fatalf("OpenLog over a format-%d log: %v", logFormat+1, err)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, other) {
		t.Fatalf("OpenLog touched the refused file (%v)", err)
	}
}

// TestVerifyChainCoversHeaderTimestamp rewrites one logged block's header
// timestamp in place, re-sealing the frame so its CRC is valid. The header
// hash covers the timestamp, so the next block's prev-hash (or, for the
// last block, the tip the ledger holds) no longer matches.
func TestVerifyChainCoversHeaderTimestamp(t *testing.T) {
	chain := randomChain(t, rand.New(rand.NewSource(7)), 6)
	for _, victim := range []uint64{2, uint64(len(chain) - 1)} {
		dir := t.TempDir()
		loggedFixture(t, dir, chain, false)
		path := filepath.Join(dir, "blocks.wal")
		db := openIndexDB(t, dir)
		l, err := Open(path, db)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.VerifyChain(); err != nil {
			t.Fatalf("intact chain: %v", err)
		}
		start, err := l.offsetOf(victim)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := int(binary.BigEndian.Uint32(data[start:]))
		frame := data[start : int(start)+walframe.HeaderLen+n]
		// Payload: format byte, one-byte block number, two hashes, timestamp.
		ts := frame[walframe.HeaderLen+1+1+64:][:8]
		binary.BigEndian.PutUint64(ts, binary.BigEndian.Uint64(ts)+uint64(time.Hour))
		walframe.Seal(frame)
		if crc32.ChecksumIEEE(frame[walframe.HeaderLen:]) != binary.BigEndian.Uint32(frame[4:]) {
			t.Fatal("re-sealed frame has a bad CRC")
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		l, err = Open(path, db)
		if err != nil {
			t.Fatal(err)
		}
		b, err := l.GetBlock(victim)
		if err != nil || !b.Header.Timestamp.Equal(chain[victim].Header.Timestamp.Add(time.Hour)) {
			t.Fatalf("block %d after the rewrite: %v (%v)", victim, b, err)
		}
		if err := l.VerifyChain(); err == nil {
			t.Fatalf("VerifyChain passed over block %d's rewritten header timestamp", victim)
		}
		l.Close()
		db.Close()
	}
}

var benchSink int

func benchBlocks(b *testing.B, fn func(b *testing.B, blk *Block)) {
	for _, shape := range []struct {
		name  string
		calls int
	}{{"single-record", 1}, {"100-call-envelope", 100}} {
		blk := fixtureBlock(shape.calls)
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			fn(b, blk)
		})
	}
}

// BenchmarkBlockEncode is one block-log append's worth of encoding.
func BenchmarkBlockEncode(b *testing.B) {
	benchBlocks(b, func(b *testing.B, blk *Block) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = blk.AppendTo(buf[:0])
		}
		benchSink += len(buf)
		b.SetBytes(int64(len(buf)))
	})
}

// BenchmarkBlockDecode is one cold GetBlock's worth of decoding.
func BenchmarkBlockDecode(b *testing.B) {
	benchBlocks(b, func(b *testing.B, blk *Block) {
		enc := blk.AppendTo(nil)
		b.SetBytes(int64(len(enc)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := DecodeBlock(enc)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(got.Txs)
		}
	})
}
