package peer

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/codec"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
)

var goldenIdentity = msp.Identity{Org: "o", Name: "n", Role: msp.RoleMember, PubKey: []byte{0xAA, 0xBB}}

// goldenProposal and goldenResponse are small enough to read byte for
// byte. A change to either is a break of the endorse RPC.
func goldenProposal() Proposal {
	return Proposal{
		TxID: "tx1", ChannelID: "ch", Chaincode: "cc", Fn: "put", Args: [][]byte{[]byte("k"), []byte("v")},
		Creator: goldenIdentity, Nonce: []byte{0x4E}, Timestamp: time.Unix(1, 2),
		Signature: []byte{0x53}, Trace: "t", MinHeight: 300,
	}
}

func goldenResponse() ProposalResponse {
	return ProposalResponse{
		TxID: "tx1", Response: []byte("ok"), RWSet: []byte{0x01},
		Events:      []ledger.Event{{Name: "e", Payload: []byte("p")}},
		Endorsement: msp.Endorsement{Endorser: goldenIdentity, Digest: []byte{0xD1}, Signature: []byte{0x51, 0x52}},
	}
}

// goldenCreatorHex is goldenIdentity: org, name, role, key.
const goldenCreatorHex = "016f" + "016e" + "066d656d626572" + "02aabb"

const (
	goldenProposalHex = "03747831" + "026368" + // tx ID, channel
		"026363" + "03707574" + "02" + "016b" + "0176" + // call: chaincode, fn, 2 arguments
		"00" + // no batch
		goldenCreatorHex +
		"014e" + // nonce
		"000000003b9aca02" + // timestamp: 1 s + 2 ns
		"0153" + "0174" + // signature, trace
		"ac02" // min height 300
	goldenSigningHex = "03747831" + "026368" + // tx ID, channel
		"026363" + "03707574" + "02" + // payload: chaincode, fn, 2 argument hashes
		"8254c329a92850f6d539dd376f4816ee2764517da5e0235514af433164480d7a" + // SHA-256("k")
		"4c94485e0c21ae6c41ce1dfe7b6bfaceea5ab68e40a2476f50208e526f506080" + // SHA-256("v")
		"00" + // no batch
		"014e" // nonce
	goldenResponseHex = "03747831" + "026f6b" + "0101" + // tx ID, response, read/write set
		"01" + "0165" + "0170" + // 1 event
		goldenCreatorHex + "01d1" + "025152" // endorsement: endorser, digest, signature
)

// TestGoldenProposalEncoding pins the byte layout of a proposal, of the
// bytes its client signs (the envelope's payload encoding, so the
// signature covers what the chain records) and of a proposal response.
func TestGoldenProposalEncoding(t *testing.T) {
	prop, resp := goldenProposal(), goldenResponse()
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"proposal", codec.Encode(prop.AppendTo), goldenProposalHex},
		{"signing bytes", prop.SigningBytes(), goldenSigningHex},
		{"response", codec.Encode(resp.AppendTo), goldenResponseHex},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Fatalf("%s layout changed:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
	raw, _ := hex.DecodeString(goldenProposalHex)
	var back Proposal
	r := codec.NewReader(raw)
	back.DecodeFrom(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if back.MinHeight != 300 || string(back.Args[1]) != "v" || !back.Timestamp.Equal(time.Unix(1, 2)) || !bytes.Equal(back.SigningBytes(), prop.SigningBytes()) {
		t.Fatalf("golden proposal decoded to %+v", back)
	}
}

// TestProposalNamingCallAndBatchRefused: a proposal is one call or one
// batch. A client cannot sign one that is both or neither, and a peer
// endorses neither, even correctly signed.
func TestProposalNamingCallAndBatchRefused(t *testing.T) {
	p, client := newTestPeer(t)
	batch := []chaincode.BatchCall{{Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("k")}}}
	for name, prop := range map[string]*Proposal{
		"both":    {ChannelID: "ch", Chaincode: "counter", Fn: "incr", Args: [][]byte{[]byte("k")}, Batch: batch},
		"neither": {ChannelID: "ch"},
	} {
		if _, err := prop.Sign(client); err == nil {
			t.Fatalf("%s: proposal signed", name)
		}
		prop.Creator, prop.TxID = client.Identity, name
		prop.Signature = client.Sign(prop.SigningBytes())
		if _, err := p.Endorse(prop); err == nil || !strings.Contains(err.Error(), "one call or one batch") {
			t.Fatalf("%s: endorse error = %v, want a refusal", name, err)
		}
	}
	if _, ok := p.State().GetState("counter", "k"); ok {
		t.Fatal("a refused proposal wrote state")
	}
}
