package peer

import (
	"fmt"

	"socialchain/internal/ledger"
)

// The consensus layer delivers decided batches live; a peer that was
// partitioned or restarted misses some and cannot execute past the gap.
// SyncFrom implements the catch-up path (Fabric's block deliver/state
// transfer): it copies the missing blocks from a healthy peer,
// re-validating everything — hash-chain linkage via ledger.Append and each
// transaction's flags via the same commit-time rules — so a malicious
// "helper" cannot inject invalid state.

// ErrFlagMismatch is returned when a synced block's recorded validation
// flags disagree with this peer's own re-validation.
var ErrFlagMismatch = fmt.Errorf("peer: synced block flags disagree with local validation")

// BlockSource is where SyncFrom pulls missing blocks from: another
// in-process *Peer, or a remote peer reached over the transport RPC layer
// (fabric's anti-entropy catch-up). Every block it returns is re-validated
// locally, so an untrusted source cannot inject invalid state.
type BlockSource interface {
	// Height returns the source chain height.
	Height() uint64
	// BlocksFrom returns a page of consecutive blocks starting at number
	// from — as many as the source chooses to hold in memory at once, at
	// least one while it has any. An empty page means from is its height.
	BlocksFrom(from uint64) ([]*ledger.Block, error)
}

// Height returns the peer's chain height (BlockSource).
func (p *Peer) Height() uint64 { return p.ledger.Height() }

// syncPageBlocks caps one in-process catch-up page; the ledger also ends
// a page early by size, so a page is a few MiB whatever the blocks hold.
const syncPageBlocks = 256

// BlocksFrom returns a page of the peer's blocks from number from
// (BlockSource).
func (p *Peer) BlocksFrom(from uint64) ([]*ledger.Block, error) {
	return p.ledger.BlocksFrom(from, syncPageBlocks)
}

// SyncFrom copies blocks [local height, source height) from the source a
// page at a time — neither side ever holds the whole gap in memory —
// returning how many blocks were applied.
func (p *Peer) SyncFrom(src BlockSource) (int, error) {
	applied := 0
	for {
		from := p.ledger.Height()
		blocks, err := src.BlocksFrom(from)
		if err != nil {
			return applied, fmt.Errorf("peer %s: sync fetch from height %d: %w", p.id, from, err)
		}
		if len(blocks) == 0 {
			return applied, nil
		}
		for _, b := range blocks {
			if err := p.applySyncedBlock(b); err != nil {
				return applied, err
			}
			applied++
		}
	}
}

// applySyncedBlock re-validates a remote block and commits it locally —
// including, on a durable peer, appending it to the block log, so a
// restart after catch-up does not lose the synced tail.
func (p *Peer) applySyncedBlock(b *ledger.Block) error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	number := p.ledger.Height()
	if b.Header.Number != number {
		return fmt.Errorf("peer %s: sync gap: got block %d at height %d", p.id, b.Header.Number, number)
	}
	if len(b.Metadata.Flags) != len(b.Txs) {
		// The flag-check callback indexes Flags[i]; a malicious or
		// malformed source block must error cleanly, not panic the peer.
		return fmt.Errorf("peer %s: synced block %d has %d flags for %d txs", p.id, b.Header.Number, len(b.Metadata.Flags), len(b.Txs))
	}
	// Re-validate every transaction against local state with the same
	// rules (and the same parallel-stateless/serial-MVCC split) the
	// original commit used; a flag disagreement aborts before any local
	// state changes.
	_, updates, err := p.validateBlock(number, b.Txs, func(i int, flag ledger.ValidationCode) error {
		if flag != b.Metadata.Flags[i] {
			return fmt.Errorf("%w: block %d tx %d: local %s vs recorded %s",
				ErrFlagMismatch, b.Header.Number, i, flag, b.Metadata.Flags[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := p.commitValidated(b, updates); err != nil {
		return fmt.Errorf("peer %s: sync: %w", p.id, err)
	}
	return nil
}
