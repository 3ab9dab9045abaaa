package fabric

import (
	"time"

	"socialchain/internal/codec"
	"socialchain/internal/ledger"
	"socialchain/internal/peer"
)

// RPC method names and payloads spoken between the nodes of a deployment
// and its remote gateways: nodes (node.go) serve the endorsement, submit,
// commit-wait and block-fetch methods, and remote gateways (remote.go) and
// lagging nodes call them. Every request names its channel; a node answers
// a name other than its own channel's with the nochannel code.
//
// The two bodies that carry chain data — a submit's transaction and a
// blocks response — are encoded with
// internal/codec (the encode/decode pairs below) and travel through
// RPC.Call as raw bytes. The rest are small control-plane structs that
// nothing hashes or stores; they stay JSON through RPC.CallJSON.
const (
	methodEndorse      = "endorse"
	methodEndorseBatch = "endorsebatch"
	methodWaitCommit   = "waitcommit"
	methodHeight       = "height"
	methodBlocks       = "blocks"
	methodVerifyChain  = "verifychain"
	methodSubmit       = "submit"
)

// Error codes carried across the wire as transport.CodedError, mapped back
// to this package's (and ordering's) sentinel errors on the client side.
const (
	codeBacklog       = "backlog"
	codeStopped       = "stopped"
	codeCommitTimeout = "committimeout"
	codeBehind        = "behind"
)

// maxSyncBlocks caps how many blocks one blocks RPC returns; remote
// sources page through taller gaps.
const maxSyncBlocks = 512

type endorseReq struct {
	Channel  string         `json:"channel"`
	Proposal *peer.Proposal `json:"proposal"`
}

type endorseBatchReq struct {
	Channel  string              `json:"channel"`
	Proposal *peer.BatchProposal `json:"proposal"`
}

type waitCommitReq struct {
	Channel string        `json:"channel"`
	TxID    string        `json:"tx_id"`
	Timeout time.Duration `json:"timeout"`
}

type waitCommitResp struct {
	Flag     ledger.ValidationCode `json:"flag"`
	BlockNum uint64                `json:"block_num"`
}

type channelReq struct {
	Channel string `json:"channel"`
}

type heightResp struct {
	Height uint64 `json:"height"`
}

type blocksReq struct {
	Channel string `json:"channel"`
	From    uint64 `json:"from"`
	Max     int    `json:"max"`
}

// blocksResp is the block count, then each block's canonical encoding.
type blocksResp struct {
	Blocks []*ledger.Block
}

func (m blocksResp) encode() []byte {
	return codec.Encode(func(b []byte) []byte {
		b = codec.AppendUvarint(b, uint64(len(m.Blocks)))
		for _, blk := range m.Blocks {
			b = blk.AppendTo(b)
		}
		return b
	})
}

func decodeBlocksResp(p []byte) (blocksResp, error) {
	var m blocksResp
	r := codec.NewReader(p)
	if n := r.Count(ledger.BlockMinLen); n > 0 {
		m.Blocks = make([]*ledger.Block, n)
	}
	for i := range m.Blocks {
		m.Blocks[i] = new(ledger.Block)
		m.Blocks[i].DecodeFrom(r)
	}
	return m, r.Done()
}

// submitReq is the channel name, then the transaction's canonical encoding.
type submitReq struct {
	Channel string
	Tx      ledger.Transaction
}

func (m *submitReq) encode() []byte {
	return m.Tx.AppendTo(codec.AppendString(nil, m.Channel))
}

func decodeSubmitReq(p []byte) (*submitReq, error) {
	r := codec.NewReader(p)
	m := &submitReq{Channel: r.String()}
	m.Tx.DecodeFrom(r)
	return m, r.Done()
}

type emptyResp struct{}
