// Package explorer provides chain inspection over a peer's ledger — the
// role Hyperledger Explorer and Grafana played in the paper's testbed:
// block browsing, transaction search, validation-flag breakdowns,
// per-chaincode activity and storage accounting, rendered as text tables.
package explorer

import (
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"socialchain/internal/ledger"
	"socialchain/internal/metrics"
	"socialchain/internal/msp"
	"socialchain/internal/statedb"
)

// Explorer reads one peer's ledger and (optionally) its world state. It
// holds no state of its own; every call reflects the chain at call time.
type Explorer struct {
	ledger *ledger.Ledger
	state  *statedb.DB
}

// New builds an explorer over a ledger.
func New(l *ledger.Ledger) *Explorer {
	return &Explorer{ledger: l}
}

// WithState attaches a peer's world state, enabling the paged
// secondary-index views (IndexPage, RenderIndexPage). Returns the
// explorer for chaining.
func (e *Explorer) WithState(db *statedb.DB) *Explorer {
	e.state = db
	return e
}

// BlockSummary describes one block for listings.
type BlockSummary struct {
	Number    uint64
	Hash      string
	PrevHash  string
	Txs       int
	ValidTxs  int
	Timestamp time.Time
}

// Blocks returns summaries for block numbers [from, to); to==0 means the
// current height.
func (e *Explorer) Blocks(from, to uint64) ([]BlockSummary, error) {
	height := e.ledger.Height()
	if to == 0 || to > height {
		to = height
	}
	if from > to {
		return nil, fmt.Errorf("explorer: invalid range [%d, %d)", from, to)
	}
	out := make([]BlockSummary, 0, to-from)
	for n := from; n < to; n++ {
		b, err := e.ledger.GetBlock(n)
		if err != nil {
			return nil, err
		}
		s := BlockSummary{
			Number:    b.Header.Number,
			Hash:      shortHash(b.Header.Hash()),
			PrevHash:  shortHash(b.Header.PrevHash),
			Txs:       len(b.Txs),
			Timestamp: b.Header.Timestamp,
		}
		for _, f := range b.Metadata.Flags {
			if f == ledger.Valid {
				s.ValidTxs++
			}
		}
		out = append(out, s)
	}
	return out, nil
}

func shortHash(h [32]byte) string { return hex.EncodeToString(h[:6]) }

// TxSummary describes one transaction for listings and search results.
// Calls and Endorsers are filled by Tx only.
type TxSummary struct {
	ID        string
	Block     uint64
	Chaincode string
	Fn        string
	Creator   string
	Flag      ledger.ValidationCode
	Timestamp time.Time
	// Calls is what the envelope records of its invocation: its own call,
	// or each call of its batch, with the arguments as hex SHA-256 hashes.
	Calls []Call
	// Endorsers are the key fingerprints the envelope's endorsement
	// signatures are attributed to; the channel's msp.Registry says whose
	// they are.
	Endorsers []msp.Fingerprint
}

// Call is one recorded chaincode invocation.
type Call struct {
	Chaincode, Fn string
	ArgHashes     []string
}

// Tx looks up one transaction by ID.
func (e *Explorer) Tx(txID string) (TxSummary, error) {
	tx, flag, blockNum, err := e.ledger.GetTx(txID)
	if err != nil {
		return TxSummary{}, err
	}
	s := TxSummary{
		ID:        tx.ID,
		Block:     blockNum,
		Chaincode: tx.Payload.Chaincode,
		Fn:        tx.Payload.Fn,
		Creator:   tx.Creator.ID(),
		Flag:      flag,
		Timestamp: tx.Timestamp,
	}
	for _, c := range tx.Payload.Calls() {
		call := Call{Chaincode: c.Chaincode, Fn: c.Fn}
		for _, h := range c.ArgHashes {
			call.ArgHashes = append(call.ArgHashes, h.String())
		}
		s.Calls = append(s.Calls, call)
	}
	for _, en := range tx.Endorsements {
		s.Endorsers = append(s.Endorsers, en.Signer)
	}
	return s, nil
}

// RenderTx writes one transaction's record: where it landed, what it
// invoked (argument hashes, not arguments: the envelope keeps the hashes)
// and which key fingerprints endorsed it.
func (e *Explorer) RenderTx(w io.Writer, txID string) error {
	s, err := e.Tx(txID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tx %s  block %d  %s  by %s\n", s.ID, s.Block, s.Flag, s.Creator)
	for _, c := range s.Calls {
		fmt.Fprintf(w, "  call %s.%s  arg_hashes %s\n", c.Chaincode, c.Fn, strings.Join(c.ArgHashes, " "))
	}
	fmt.Fprintf(w, "  endorsers %v\n", s.Endorsers)
	return nil
}

// Search returns all transactions matching the (optional) filters.
func (e *Explorer) Search(chaincode, creator string, onlyInvalid bool) []TxSummary {
	var out []TxSummary
	e.ledger.Iterate(func(b *ledger.Block) bool {
		for i := range b.Txs {
			tx := &b.Txs[i]
			flag := b.Metadata.Flags[i]
			if chaincode != "" && tx.Payload.Chaincode != chaincode {
				continue
			}
			if creator != "" && tx.Creator.ID() != creator {
				continue
			}
			if onlyInvalid && flag == ledger.Valid {
				continue
			}
			out = append(out, TxSummary{
				ID:        tx.ID,
				Block:     b.Header.Number,
				Chaincode: tx.Payload.Chaincode,
				Fn:        tx.Payload.Fn,
				Creator:   tx.Creator.ID(),
				Flag:      flag,
				Timestamp: tx.Timestamp,
			})
		}
		return true
	})
	return out
}

// ChannelStats aggregates chain-wide counters.
type ChannelStats struct {
	Height        uint64
	TotalTxs      int
	FlagBreakdown map[ledger.ValidationCode]int
	ByChaincode   map[string]int
	ByCreator     map[string]int
	BytesOnChain  int
}

// Stats walks the chain and aggregates.
func (e *Explorer) Stats() ChannelStats {
	s := ChannelStats{
		FlagBreakdown: make(map[ledger.ValidationCode]int),
		ByChaincode:   make(map[string]int),
		ByCreator:     make(map[string]int),
	}
	e.ledger.Iterate(func(b *ledger.Block) bool {
		s.Height = b.Header.Number + 1
		for i := range b.Txs {
			tx := &b.Txs[i]
			s.TotalTxs++
			s.FlagBreakdown[b.Metadata.Flags[i]]++
			s.ByChaincode[tx.Payload.Chaincode]++
			s.ByCreator[tx.Creator.ID()]++
			s.BytesOnChain += len(tx.Bytes())
		}
		return true
	})
	return s
}

// RenderBlocks writes a block listing table.
func (e *Explorer) RenderBlocks(w io.Writer, from, to uint64) error {
	blocks, err := e.Blocks(from, to)
	if err != nil {
		return err
	}
	tbl := metrics.NewTable("block", "hash", "prev", "txs", "valid")
	for _, b := range blocks {
		tbl.AddRow(b.Number, b.Hash, b.PrevHash, b.Txs, b.ValidTxs)
	}
	tbl.Render(w)
	return nil
}

// RenderStats writes the channel statistics tables.
func (e *Explorer) RenderStats(w io.Writer) {
	s := e.Stats()
	fmt.Fprintf(w, "height %d, %d txs, %d bytes on-chain\n\n", s.Height, s.TotalTxs, s.BytesOnChain)

	flags := metrics.NewTable("validation_flag", "count")
	codes := make([]ledger.ValidationCode, 0, len(s.FlagBreakdown))
	for c := range s.FlagBreakdown {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	for _, c := range codes {
		flags.AddRow(c.String(), s.FlagBreakdown[c])
	}
	flags.Render(w)

	fmt.Fprintln(w)
	byCC := metrics.NewTable("chaincode", "txs")
	names := make([]string, 0, len(s.ByChaincode))
	for n := range s.ByChaincode {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		byCC.AddRow(n, s.ByChaincode[n])
	}
	byCC.Render(w)
}

// VerifyIntegrity re-checks the full hash chain, surfacing the explorer's
// tamper-evidence view.
func (e *Explorer) VerifyIntegrity() error { return e.ledger.VerifyChain() }

// IndexPage returns one page of a world-state secondary index — the
// explorer view of the retrieval pipeline's paged queries (records by
// label/source/camera, or the whole namespace in time order through the
// submitted index). Requires WithState.
func (e *Explorer) IndexPage(index, value string, limit int, token string) (statedb.IndexPage, error) {
	if e.state == nil {
		return statedb.IndexPage{}, fmt.Errorf("explorer: no world state attached (use WithState)")
	}
	return e.state.IterIndex(index, value, limit, 0, token)
}

// RenderIndexPage writes one page of a secondary index as a table and
// returns the token resuming the next page ("" when exhausted).
func (e *Explorer) RenderIndexPage(w io.Writer, index, value string, limit int, token string) (string, error) {
	page, err := e.IndexPage(index, value, limit, token)
	if err != nil {
		return "", err
	}
	tbl := metrics.NewTable(index, "key")
	for _, entry := range page.Entries {
		tbl.AddRow(entry.Value, entry.Key)
	}
	tbl.Render(w)
	if page.Next != "" {
		fmt.Fprintf(w, "next page: %s\n", page.Next)
	}
	return page.Next, nil
}
