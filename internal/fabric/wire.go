package fabric

import (
	"time"

	"socialchain/internal/codec"
	"socialchain/internal/ledger"
	"socialchain/internal/peer"
	"socialchain/internal/transport"
)

// RPC method names and payloads spoken between the nodes of a deployment
// and its remote gateways: nodes (node.go) serve the endorsement, submit,
// commit-wait and block-fetch methods, and remote gateways (remote.go) and
// lagging nodes call them. Every request names its channel; a node answers
// a name other than its own channel's with the nochannel code.
//
// Every body is encoded with internal/codec: each type below lays out its
// fields with an AppendTo/DecodeFrom pair, reusing the encodings of the
// chain data it carries (a proposal, a transaction, a block), and travels
// through RPC.Call as raw bytes. A body that is not one whole encoding —
// a JSON body from an older build among them — is refused with
// codec.ErrCorrupt.
const (
	methodEndorse     = "endorse"
	methodWaitCommit  = "waitcommit"
	methodHeight      = "height"
	methodBlocks      = "blocks"
	methodVerifyChain = "verifychain"
	methodSubmit      = "submit"
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

// body is an RPC request or response body.
type body interface {
	AppendTo(b []byte) []byte
	DecodeFrom(r *codec.Reader)
}

func encode(m body) []byte { return codec.Encode(m.AppendTo) }

// decode reads a whole body into m; bytes left over are an error.
func decode(p []byte, m body) error {
	r := codec.NewReader(p)
	m.DecodeFrom(r)
	return r.Done()
}

// call sends req to peer `to` and decodes the response into resp.
func call(rpc *transport.RPC, to, method string, req, resp body, timeout time.Duration) error {
	out, err := rpc.Call(to, method, encode(req), timeout)
	if err != nil {
		return err
	}
	return decode(out, resp)
}

// endorseReq is the channel name, then the proposal's encoding. The
// response is the peer.ProposalResponse's.
type endorseReq struct {
	Channel  string
	Proposal peer.Proposal
}

func (m *endorseReq) AppendTo(b []byte) []byte {
	return m.Proposal.AppendTo(codec.AppendString(b, m.Channel))
}

func (m *endorseReq) DecodeFrom(r *codec.Reader) {
	m.Channel = r.String()
	m.Proposal.DecodeFrom(r)
}

// waitCommitReq is the channel name, the transaction ID and how long the
// client will wait, in nanoseconds.
type waitCommitReq struct {
	Channel string
	TxID    string
	Timeout time.Duration
}

func (m *waitCommitReq) AppendTo(b []byte) []byte {
	b = codec.AppendString(codec.AppendString(b, m.Channel), m.TxID)
	return codec.AppendUvarint(b, uint64(m.Timeout))
}

func (m *waitCommitReq) DecodeFrom(r *codec.Reader) {
	m.Channel, m.TxID, m.Timeout = r.String(), r.String(), time.Duration(r.Uvarint())
}

// waitCommitResp is the validation flag byte, then the block number.
type waitCommitResp struct {
	Flag     ledger.ValidationCode
	BlockNum uint64
}

func (m *waitCommitResp) AppendTo(b []byte) []byte {
	return codec.AppendUvarint(append(b, byte(m.Flag)), m.BlockNum)
}

func (m *waitCommitResp) DecodeFrom(r *codec.Reader) {
	m.Flag, m.BlockNum = ledger.ValidationCode(r.Byte()), r.Uvarint()
}

// channelReq, the height and verifychain request, is the channel name.
type channelReq struct{ Channel string }

func (m *channelReq) AppendTo(b []byte) []byte   { return codec.AppendString(b, m.Channel) }
func (m *channelReq) DecodeFrom(r *codec.Reader) { m.Channel = r.String() }

// heightResp, the height and verifychain response, is the chain height.
type heightResp struct{ Height uint64 }

func (m *heightResp) AppendTo(b []byte) []byte   { return codec.AppendUvarint(b, m.Height) }
func (m *heightResp) DecodeFrom(r *codec.Reader) { m.Height = r.Uvarint() }

// blocksReq is the channel name, then the first height wanted; the node
// answers with at most maxSyncBlocks blocks from there.
type blocksReq struct {
	Channel string
	From    uint64
}

func (m *blocksReq) AppendTo(b []byte) []byte {
	return codec.AppendUvarint(codec.AppendString(b, m.Channel), m.From)
}

func (m *blocksReq) DecodeFrom(r *codec.Reader) { m.Channel, m.From = r.String(), r.Uvarint() }

// blocksResp is the block count, then each block's canonical encoding.
type blocksResp struct {
	Blocks []*ledger.Block
}

func (m *blocksResp) AppendTo(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(len(m.Blocks)))
	for _, blk := range m.Blocks {
		b = blk.AppendTo(b)
	}
	return b
}

func (m *blocksResp) DecodeFrom(r *codec.Reader) {
	m.Blocks = nil
	if n := r.Count(ledger.BlockMinLen); n > 0 {
		m.Blocks = make([]*ledger.Block, n)
	}
	for i := range m.Blocks {
		m.Blocks[i] = new(ledger.Block)
		m.Blocks[i].DecodeFrom(r)
	}
}

// submitReq is the channel name, then the transaction's canonical
// encoding. The response is empty.
type submitReq struct {
	Channel string
	Tx      ledger.Transaction
}

func (m *submitReq) AppendTo(b []byte) []byte {
	return m.Tx.AppendTo(codec.AppendString(b, m.Channel))
}

func (m *submitReq) DecodeFrom(r *codec.Reader) {
	m.Channel = r.String()
	m.Tx.DecodeFrom(r)
}
