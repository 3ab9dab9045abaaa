package ledger

import (
	"crypto/sha256"
	"time"

	"socialchain/internal/codec"
	"socialchain/internal/merkle"
)

// BlockHeader chains blocks: each header commits to the previous header's
// hash and to the Merkle root of the block's transactions.
type BlockHeader struct {
	Number    uint64    `json:"number"`
	PrevHash  [32]byte  `json:"prev_hash"`
	DataHash  [32]byte  `json:"data_hash"`
	Timestamp time.Time `json:"timestamp"`
}

// appendTo appends the header's canonical encoding: number, previous
// hash, data hash, timestamp.
func (h BlockHeader) appendTo(b []byte) []byte {
	b = codec.AppendUvarint(b, h.Number)
	b = append(b, h.PrevHash[:]...)
	b = append(b, h.DataHash[:]...)
	return codec.AppendTime(b, h.Timestamp)
}

// headerLen is the shortest (and, above block 127, nearly the only)
// encoded header size.
const headerLen = 1 + 32 + 32 + 8

// Hash computes the header hash that the next block must reference: the
// SHA-256 of the header's canonical encoding, so it covers every field —
// the timestamp included — by construction.
func (h BlockHeader) Hash() [32]byte {
	return sha256.Sum256(h.appendTo(make([]byte, 0, headerLen+9)))
}

// BlockMetadata carries per-transaction validation flags set by committers.
type BlockMetadata struct {
	Flags []ValidationCode `json:"flags"`
}

// Block is a batch of ordered transactions.
type Block struct {
	Header   BlockHeader   `json:"header"`
	Txs      []Transaction `json:"txs"`
	Metadata BlockMetadata `json:"metadata"`
}

// AppendTo appends the block's canonical encoding (internal/codec): the
// header, the transactions behind their count, the validation flags as one
// byte string.
func (b *Block) AppendTo(buf []byte) []byte {
	buf = AppendTxs(b.Header.appendTo(buf), b.Txs)
	buf = codec.AppendUvarint(buf, uint64(len(b.Metadata.Flags)))
	for _, f := range b.Metadata.Flags {
		buf = append(buf, byte(f))
	}
	return buf
}

// DecodeFrom reads what AppendTo wrote.
func (b *Block) DecodeFrom(r *codec.Reader) {
	*b = Block{Header: BlockHeader{Number: r.Uvarint(), PrevHash: r.Hash(), DataHash: r.Hash(), Timestamp: r.Time()}}
	b.Txs = DecodeTxs(r)
	if n := r.Count(1); n > 0 {
		b.Metadata.Flags = make([]ValidationCode, n)
	}
	for i := range b.Metadata.Flags {
		b.Metadata.Flags[i] = ValidationCode(r.Byte())
	}
}

// BlockMinLen is the shortest encoded block (an empty one), for the
// codec.Reader.Count of a list of them.
const BlockMinLen = headerLen + 2

// DecodeBlock parses a whole block encoded with AppendTo.
func DecodeBlock(p []byte) (*Block, error) {
	var b Block
	r := codec.NewReader(p)
	b.DecodeFrom(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &b, nil
}

// ComputeDataHash returns the Merkle root over the block's transactions.
func ComputeDataHash(txs []Transaction) [32]byte {
	leaves := make([][]byte, len(txs))
	for i := range txs {
		leaves[i] = txs[i].Bytes()
	}
	return merkle.RootOf(leaves)
}

// NewBlock assembles a block at the given height referencing prevHash.
func NewBlock(number uint64, prevHash [32]byte, txs []Transaction, ts time.Time) *Block {
	return &Block{
		Header: BlockHeader{
			Number:    number,
			PrevHash:  prevHash,
			DataHash:  ComputeDataHash(txs),
			Timestamp: ts,
		},
		Txs:      txs,
		Metadata: BlockMetadata{Flags: make([]ValidationCode, len(txs))},
	}
}

// TxProof builds a Merkle inclusion proof for the i-th transaction.
func (b *Block) TxProof(i int) (merkle.Proof, error) {
	leaves := make([][]byte, len(b.Txs))
	for j := range b.Txs {
		leaves[j] = b.Txs[j].Bytes()
	}
	return merkle.New(leaves).Prove(i)
}

// VerifyTxInclusion checks a transaction's Merkle proof against the header.
func (b *Block) VerifyTxInclusion(tx *Transaction, proof merkle.Proof) bool {
	return merkle.Verify(b.Header.DataHash, tx.Bytes(), proof)
}
