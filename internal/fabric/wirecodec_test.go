package fabric

import (
	"bytes"
	"testing"
	"time"

	"socialchain/internal/codec/codectest"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
)

// bodyFixtures returns one encoded body per binary RPC, keyed by the
// selector byte FuzzDecodeBodies uses.
func bodyFixtures() map[byte][]byte {
	client := msp.NewSignerFromSeed("wire", "org", "client", msp.RoleMember)
	tx := ledger.Transaction{ID: "tx1", ChannelID: "ch", Creator: client.Identity, Timestamp: time.Unix(1, 2),
		Payload:      ledger.TxPayload{Chaincode: "kv", Fn: "put", ArgHashes: ledger.HashArgs([][]byte{[]byte("k"), []byte("v")})},
		Endorsements: []msp.EndorsementRef{{Signer: client.Identity.Fingerprint(), Signature: client.Sign([]byte("digest"))}}}
	genesis := ledger.NewBlock(0, [32]byte{}, nil, time.Time{})
	next := ledger.NewBlock(1, genesis.Header.Hash(), []ledger.Transaction{tx}, tx.Timestamp)
	return map[byte][]byte{
		0: (&submitReq{Channel: "ch", Tx: tx}).encode(),
		1: blocksResp{Blocks: []*ledger.Block{genesis, next}}.encode(),
	}
}

// decodeBody decodes body as RPC kind and encodes the result again.
func decodeBody(kind byte, body []byte) ([]byte, error) {
	switch kind % 2 {
	case 0:
		m, err := decodeSubmitReq(body)
		if err != nil {
			return nil, err
		}
		return m.encode(), nil
	default:
		m, err := decodeBlocksResp(body)
		return m.encode(), err
	}
}

// TestBinaryBodiesEveryOffset: the submit and blocks bodies round
// trip; no proper prefix of one decodes; a bit flip decodes only to a body
// that encodes back to the flipped bytes.
func TestBinaryBodiesEveryOffset(t *testing.T) {
	for kind, enc := range bodyFixtures() {
		if out, err := decodeBody(kind, enc); err != nil || !bytes.Equal(out, enc) {
			t.Fatalf("body %d round trip: %v", kind, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			// The empty prefix of a blocks response is not valid either: a
			// response with no blocks is the one byte 0.
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
	if m, err := decodeBlocksResp(blocksResp{}.encode()); err != nil || len(m.Blocks) != 0 {
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
			t.Fatalf("body %d decoded without error but re-encodes differently", kind%2)
		}
	})
}

// TestFuzzCorpusCurrent: the committed seeds are encodings in this format.
func TestFuzzCorpusCurrent(t *testing.T) {
	seeds := map[string][]any{}
	for kind, name := range map[byte]string{0: "submit", 1: "blocks"} {
		enc := bodyFixtures()[kind]
		seeds[name] = []any{kind, enc}
		seeds[name+"-cut"] = []any{kind, enc[:len(enc)*2/3]}
	}
	codectest.Corpus(t, "FuzzDecodeBodies", seeds)
}
