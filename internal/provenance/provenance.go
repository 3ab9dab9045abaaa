// Package provenance implements the paper's data-provenance feature: every
// stored record carries its origin, timestamp, source and payload hash, and
// records from one source form a hash-linked chain. This package verifies
// those artefacts against the ledger (Merkle inclusion) and against the
// retrieved payload (hash integrity), providing the trustworthiness,
// traceability and integrity guarantees of §III-B(c).
package provenance

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"socialchain/internal/contracts"
	"socialchain/internal/ledger"
)

// ErrTampered indicates the retrieved payload does not match the on-chain
// hash.
var ErrTampered = errors.New("provenance: payload does not match on-chain hash")

// VerifyPayload checks the retrieved payload against the record's
// cryptographic anchors: SHA-256 hash and size.
func VerifyPayload(rec *contracts.DataRecord, payload []byte) error {
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != rec.DataHash {
		return fmt.Errorf("%w: record %s", ErrTampered, rec.TxID)
	}
	if rec.SizeBytes != 0 && rec.SizeBytes != len(payload) {
		return fmt.Errorf("provenance: record %s size %d != payload %d", rec.TxID, rec.SizeBytes, len(payload))
	}
	return nil
}

// VerifyInclusion proves that txID is part of the given ledger: the
// transaction must exist, be flagged valid, and verify against its block's
// Merkle data hash.
func VerifyInclusion(l *ledger.Ledger, txID string) error {
	blockNum, idx, flag, ok := l.TxLocation(txID)
	if !ok {
		return fmt.Errorf("%w: tx %s", ledger.ErrNotFound, txID)
	}
	if flag != ledger.Valid {
		return fmt.Errorf("provenance: tx %s committed invalid: %s", txID, flag)
	}
	block, err := l.GetBlock(blockNum)
	if err != nil {
		return err
	}
	if idx >= len(block.Txs) || block.Txs[idx].ID != txID {
		return fmt.Errorf("provenance: tx %s not in block %d", txID, blockNum)
	}
	proof, err := block.TxProof(idx)
	if err != nil {
		return err
	}
	if !block.VerifyTxInclusion(&block.Txs[idx], proof) {
		return fmt.Errorf("provenance: merkle proof failed for tx %s", txID)
	}
	return nil
}

// VerifyChain checks a per-source provenance chain (newest first, as
// returned by the data contract's getProvenance): links must connect,
// sequence numbers must descend to 1, and all records must share a source.
func VerifyChain(chain []contracts.DataRecord) error {
	if len(chain) == 0 {
		return errors.New("provenance: empty chain")
	}
	source := chain[0].Source
	for i := range chain {
		rec := &chain[i]
		if rec.Source != source {
			return fmt.Errorf("provenance: chain mixes sources %s and %s", source, rec.Source)
		}
		wantSeq := chain[0].Seq - i
		if rec.Seq != wantSeq {
			return fmt.Errorf("provenance: record %s has seq %d, want %d", rec.TxID, rec.Seq, wantSeq)
		}
		if i+1 < len(chain) {
			if rec.PrevTxID != chain[i+1].TxID {
				return fmt.Errorf("provenance: link broken at %s", rec.TxID)
			}
		} else if rec.PrevTxID != "" {
			return fmt.Errorf("provenance: chain tail %s has dangling prev %s", rec.TxID, rec.PrevTxID)
		}
	}
	if chain[len(chain)-1].Seq != 1 {
		return fmt.Errorf("provenance: chain does not reach origin (tail seq %d)", chain[len(chain)-1].Seq)
	}
	return nil
}

// Summary describes a verified provenance chain for reporting.
type Summary struct {
	Source  string
	Length  int
	Origin  string // first tx id
	Newest  string // latest tx id
	Valid   bool
	Problem string
}

// Summarise verifies a chain and produces a report.
func Summarise(chain []contracts.DataRecord) Summary {
	s := Summary{Length: len(chain)}
	if len(chain) > 0 {
		s.Source = chain[0].Source
		s.Newest = chain[0].TxID
		s.Origin = chain[len(chain)-1].TxID
	}
	if err := VerifyChain(chain); err != nil {
		s.Problem = err.Error()
		return s
	}
	s.Valid = true
	return s
}
