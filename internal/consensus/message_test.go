package consensus

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"socialchain/internal/codec/codectest"
)

func goldenMessage() *Message {
	return &Message{
		Type: MsgNewView, View: 3, Seq: 300, Digest: [32]byte{0xD1, 0xD2}, From: "v1",
		Payload:            []byte("batch"),
		PrePrepareEvidence: []byte{0xE1},
		Proofs:             [][]byte{{0xF1}, nil},
		Signature:          []byte{0x51, 0x52},
	}
}

// goldenMessageHex is the layout DESIGN.md tabulates. A change to it
// breaks every deployment whose processes are not upgraded together.
const goldenMessageHex = "05" + "03" + "ac02" + // type NEW-VIEW, view 3, seq 300
	"d1d2000000000000000000000000000000000000000000000000000000000000" + // digest
	"027631" + // from
	"056261746368" + // payload
	"01e1" + // pre-prepare evidence
	"02" + "01f1" + "00" + // 2 proofs
	"025152" // signature

func TestGoldenMessageEncoding(t *testing.T) {
	if got := hex.EncodeToString(goldenMessage().Encode()); got != goldenMessageHex {
		t.Fatalf("message layout changed:\n got %s\nwant %s", got, goldenMessageHex)
	}
	raw, _ := hex.DecodeString(goldenMessageHex)
	m, err := DecodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgNewView || m.Seq != 300 || m.From != "v1" || string(m.Payload) != "batch" || len(m.Proofs) != 2 || m.Proofs[1] != nil {
		t.Fatalf("golden message decoded to %+v", m)
	}
	if !bytes.Equal(m.SigningBytes(), goldenMessage().SigningBytes()) {
		t.Fatal("decoded message signs different bytes")
	}
}

// prePrepareWithBatch is a leader's pre-prepare carrying a batch of size
// payload bytes — what a single-record block's ordering costs on the wire.
func prePrepareWithBatch(size int) *Message {
	payload := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(payload)
	sig := make([]byte, 64)
	return &Message{Type: MsgPrePrepare, View: 1, Seq: 4242, Digest: DigestOf(payload), From: "peer0", Payload: payload, Signature: sig}
}

// prepareFor is replica peer2's prepare for pp, carrying pp's header as
// evidence.
func prepareFor(pp *Message) *Message {
	return &Message{Type: MsgPrepare, View: pp.View, Seq: pp.Seq, Digest: pp.Digest, From: "peer2", PrePrepareEvidence: pp.encodeHeader(), Signature: make([]byte, 64)}
}

func decodeMessageBytes(p []byte) ([]byte, error) {
	m, err := DecodeMessage(p)
	if err != nil {
		return nil, err
	}
	return m.Encode(), nil
}

// checkDecode: a decoder fails, or returns what encodes back to its input.
func checkDecode(t testing.TB, name string, in []byte) {
	t.Helper()
	if out, err := decodeMessageBytes(in); err == nil && !bytes.Equal(out, in) {
		t.Fatalf("%s: decoded without error but re-encodes differently", name)
	}
}

// TestDecodeMessageEveryOffset cuts an encoded message at every offset
// (never decodes) and flips bits at every offset (decodes only to what
// encodes back to the flipped bytes). A prepare with embedded evidence
// nests one encoded message inside another.
func TestDecodeMessageEveryOffset(t *testing.T) {
	prepare := prepareFor(prePrepareWithBatch(300))
	prepare.Proofs = [][]byte{{1}, {2, 3}}
	enc := prepare.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeMessage(enc[:cut]); err == nil {
			t.Fatalf("message cut to %d of %d bytes decoded", cut, len(enc))
		}
	}
	for off := range enc {
		for _, bit := range []byte{0x01, 0x80} {
			flipped := append([]byte(nil), enc...)
			flipped[off] ^= bit
			checkDecode(t, fmt.Sprintf("flip %#x at %d", bit, off), flipped)
		}
	}
	// A proof count the input cannot hold fails before it is allocated:
	// an empty message ends in a zero count and an empty signature.
	head := (&Message{}).Encode()
	huge := binary.AppendUvarint(head[:len(head)-2], 1<<62)
	if _, err := DecodeMessage(huge); err == nil {
		t.Fatal("a proof count of 2^62 decoded")
	}
}

func FuzzDecodeMessage(f *testing.F) {
	for _, m := range []*Message{goldenMessage(), prePrepareWithBatch(200), {}} {
		enc := m.Encode()
		f.Add(enc)
		for cut := 1; cut < len(enc); cut += 37 {
			f.Add(enc[:cut])
		}
		for off := 0; off < len(enc); off += 41 {
			flipped := append([]byte(nil), enc...)
			flipped[off] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) { checkDecode(t, "message", in) })
}

// TestFuzzCorpusCurrent: the committed seeds are encodings in this format.
func TestFuzzCorpusCurrent(t *testing.T) {
	prepare := prepareFor(prePrepareWithBatch(200)).Encode()
	flipped := append([]byte(nil), prepare...)
	flipped[40] ^= 0x10 // in the sender's name
	codectest.Corpus(t, "FuzzDecodeMessage", map[string][]any{
		"golden-new-view":       {goldenMessage().Encode()},
		"pre-prepare":           {prePrepareWithBatch(200).Encode()},
		"prepare-with-evidence": {prepare},
		"prepare-cut":           {prepare[:len(prepare)*2/3]},
		"prepare-flip":          {flipped},
	})
}

var benchSink int

// BenchmarkMessageRoundTrip encodes and decodes a pre-prepare carrying a
// single-record batch (~4.3 KB): one hop of the PBFT leader's broadcast.
func BenchmarkMessageRoundTrip(b *testing.B) {
	m := prePrepareWithBatch(4300)
	b.ReportAllocs()
	b.SetBytes(int64(len(m.Encode())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeMessage(m.Encode())
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(got.Payload)
	}
}
