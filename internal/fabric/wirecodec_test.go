package fabric

import (
	"bytes"
	"testing"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/codec/codectest"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/peer"
)

// bodyKinds lists every RPC body, indexed by the kind byte
// FuzzDecodeBodies uses; the names are the fuzz seeds'.
var bodyKinds = []struct {
	name string
	new  func() body
}{
	{"submit", func() body { return new(submitReq) }},
	{"blocks", func() body { return new(blocksResp) }},
	{"endorse", func() body { return new(endorseReq) }},
	{"endorsement", func() body { return new(peer.ProposalResponse) }},
	{"waitcommit", func() body { return new(waitCommitReq) }},
	{"committed", func() body { return new(waitCommitResp) }},
	{"blocksreq", func() body { return new(blocksReq) }},
	{"channel", func() body { return new(channelReq) }},
	{"height", func() body { return new(heightResp) }},
}

// bodyFixtures returns one encoded body per RPC body kind.
func bodyFixtures() map[byte][]byte {
	client := msp.NewSignerFromSeed("wire", "org", "client", msp.RoleMember)
	tx := ledger.Transaction{ID: "tx1", Creator: client.Identity, Timestamp: time.Unix(1, 2),
		Payload:      ledger.TxPayload{Chaincode: "kv", Fn: "put", ArgHashes: ledger.HashArgs([][]byte{[]byte("k"), []byte("v")})},
		Endorsements: []msp.EndorsementRef{{Signer: client.Identity.Fingerprint(), Signature: client.Sign([]byte("digest"))}}}
	genesis := ledger.NewBlock(0, [32]byte{}, nil, time.Time{})
	next := ledger.NewBlock(1, genesis.Header.Hash(), []ledger.Transaction{tx}, tx.Timestamp)
	prop := peer.Proposal{TxID: "tx2", ChannelID: "ch", Creator: client.Identity, Nonce: []byte("nonce"),
		Timestamp: time.Unix(3, 4), Trace: "trace", MinHeight: 9,
		Batch: []chaincode.BatchCall{
			{Chaincode: "kv", Fn: "put", Args: [][]byte{[]byte("k"), []byte("v")}},
			{Chaincode: "kv", Fn: "get", Args: [][]byte{[]byte("k")}},
		}}
	prop.Signature = client.Sign(prop.SigningBytes())
	resp := peer.ProposalResponse{TxID: "tx2", Response: []byte("ok"), RWSet: []byte{1, 2, 3},
		Endorsement: msp.Endorsement{Endorser: client.Identity, Digest: []byte("digest"), Signature: client.Sign([]byte("digest"))}}
	return map[byte][]byte{
		0: encode(&submitReq{Channel: "ch", Tx: tx}),
		1: encode(&blocksResp{Blocks: []*ledger.Block{genesis, next}}),
		2: encode(&endorseReq{Channel: "ch", Proposal: prop}),
		3: encode(&resp),
		4: encode(&waitCommitReq{Channel: "ch", TxID: "tx2", Timeout: time.Hour}),
		5: encode(&waitCommitResp{Flag: ledger.MVCCConflict, BlockNum: 300}),
		6: encode(&blocksReq{Channel: "ch", From: 300}),
		7: encode(&channelReq{Channel: "ch"}),
		8: encode(&heightResp{Height: 300}),
	}
}

// decodeBody decodes body as RPC kind and encodes the result again.
func decodeBody(kind byte, in []byte) ([]byte, error) {
	m := bodyKinds[int(kind)%len(bodyKinds)].new()
	if err := decode(in, m); err != nil {
		return nil, err
	}
	return encode(m), nil
}

// TestBinaryBodiesEveryOffset: every RPC body round trips; no proper prefix of one decodes; a bit flip decodes only to a body
// that encodes back to the flipped bytes.
func TestBinaryBodiesEveryOffset(t *testing.T) {
	for kind, enc := range bodyFixtures() {
		if out, err := decodeBody(kind, enc); err != nil || !bytes.Equal(out, enc) {
			t.Fatalf("body %d round trip: %v", kind, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			// The empty prefix is not valid either: every body has at
			// least one field, and a response with no blocks is the one
			// byte 0.
			if _, err := decodeBody(kind, enc[:cut]); err == nil {
				t.Fatalf("body %d cut to %d of %d bytes decoded", kind, cut, len(enc))
			}
		}
		for off := range enc {
			flipped := append([]byte(nil), enc...)
			flipped[off] ^= 0x80
			if out, err := decodeBody(kind, flipped); err == nil && !bytes.Equal(out, flipped) {
				t.Fatalf("body %d flipped at %d decoded to a different body", kind, off)
			}
		}
	}
	var m blocksResp
	if err := decode(encode(&blocksResp{}), &m); err != nil || len(m.Blocks) != 0 {
		t.Fatalf("empty blocks response: %+v, %v", m, err)
	}
}

func FuzzDecodeBodies(f *testing.F) {
	for kind, enc := range bodyFixtures() {
		f.Add(kind, enc)
		for cut := 1; cut < len(enc); cut += 11 {
			f.Add(kind, enc[:cut])
		}
		for off := 0; off < len(enc); off += 13 {
			flipped := append([]byte(nil), enc...)
			flipped[off] ^= 0x10
			f.Add(kind, flipped)
		}
	}
	f.Fuzz(func(t *testing.T, kind byte, in []byte) {
		if out, err := decodeBody(kind, in); err == nil && !bytes.Equal(out, in) {
			t.Fatalf("body %s decoded without error but re-encodes differently", bodyKinds[int(kind)%len(bodyKinds)].name)
		}
	})
}

// TestFuzzCorpusCurrent: the committed seeds are encodings in this format.
func TestFuzzCorpusCurrent(t *testing.T) {
	seeds := map[string][]any{}
	fixtures := bodyFixtures()
	for kind, k := range bodyKinds {
		enc := fixtures[byte(kind)]
		seeds[k.name] = []any{byte(kind), enc}
		seeds[k.name+"-cut"] = []any{byte(kind), enc[:len(enc)*2/3]}
	}
	codectest.Corpus(t, "FuzzDecodeBodies", seeds)
}
