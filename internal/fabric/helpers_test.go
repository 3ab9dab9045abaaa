package fabric

import (
	"testing"
	"time"

	"socialchain/internal/ledger"
	"socialchain/internal/peer"
	"socialchain/internal/statedb"
)

// proposalT aliases the peer proposal for test readability.
type proposalT = peer.Proposal

func newRawProposal(gw *Gateway, cc, fn string, args [][]byte) (*peer.Proposal, error) {
	return peer.NewProposal(gw.client, gw.ch.name, cc, fn, args, time.Now())
}

// envelopeFrom assembles a signed envelope carrying only the given
// endorsement(s) — used to craft under-endorsed or corrupted transactions.
func envelopeFrom(t *testing.T, gw *Gateway, prop *peer.Proposal, resps ...*peer.ProposalResponse) ledger.Transaction {
	t.Helper()
	if len(resps) == 0 {
		t.Fatal("envelopeFrom needs at least one response")
	}
	rw, err := statedb.DecodeRWSet(resps[0].RWSet)
	if err != nil {
		t.Fatalf("decode rwset: %v", err)
	}
	tx := ledger.Transaction{
		ID:        prop.TxID,
		ChannelID: prop.ChannelID,
		Creator:   gw.client.Identity,
		Payload:   ledger.TxPayload{Chaincode: prop.Chaincode, Fn: prop.Fn, ArgHashes: ledger.HashArgs(prop.Args)},
		Response:  resps[0].Response,
		RWSet:     rw,
		Events:    resps[0].Events,
		Timestamp: prop.Timestamp,
	}
	for _, r := range resps {
		tx.Endorsements = append(tx.Endorsements, r.Endorsement.Ref())
	}
	tx.Signature = gw.client.Sign(tx.SigningBytes())
	return tx
}
