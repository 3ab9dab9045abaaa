// Package contracts implements the paper's chaincodes (§III-B) against the
// chaincode runtime: admin enrollment, user registration, transaction
// validation (source authentication + schema verification), data upload and
// retrieval (CID + metadata on-chain), and trust scoring. Each contract is
// stateless Go code; all state flows through the stub into the world state,
// so every endorser computes identical read/write sets.
package contracts

import (
	"encoding/json"
	"time"

	"socialchain/internal/statedb"
)

// Chaincode names (world-state namespaces).
const (
	AdminCC      = "admin"
	UsersCC      = "users"
	TrustCC      = "trust"
	DataCC       = "data"
	ValidationCC = "validation"
)

// AdminRecord is the on-chain record of an enrolled administrator,
// mirroring the paper's enrollAdmin chaincode.
type AdminRecord struct {
	AdminID    string    `json:"admin_id"`
	Role       string    `json:"role"` // always "admin"
	CreatedAt  time.Time `json:"created_at"`
	EnrolledBy string    `json:"enrolled_by,omitempty"`
}

// UserRecord is the on-chain registration of a data source.
type UserRecord struct {
	// UserID is the msp identity id ("org/name") of the source.
	UserID string `json:"user_id"`
	// Role is trusted-source or untrusted-source.
	Role string `json:"role"`
	// PubKey is the source's verification key (base64 via JSON []byte).
	PubKey []byte `json:"pub_key"`
	// Trusted marks institution-grade sources (cameras, drones) whose
	// submissions bypass the trust-score gate.
	Trusted      bool      `json:"trusted"`
	Active       bool      `json:"active"`
	RegisteredAt time.Time `json:"registered_at"`
	RegisteredBy string    `json:"registered_by"`
}

// DataRecord is the on-chain metadata entry for one stored payload: the
// CID pointing into IPFS plus the extracted metadata and provenance links.
type DataRecord struct {
	TxID string `json:"tx_id"`
	// CID is the IPFS content identifier of the raw payload.
	CID string `json:"cid"`
	// Label is the primary (most confident) detection label, denormalised
	// to the top level so selector queries and the statedb label index see
	// it without digging through the metadata blob.
	Label string `json:"label,omitempty"`
	// Source is the submitting identity id.
	Source string `json:"source"`
	// SourceRole captures the source's role at submission time.
	SourceRole string `json:"source_role"`
	// Metadata is the detect.MetadataRecord JSON (kept raw so the contract
	// does not depend on the vision pipeline's types).
	Metadata json.RawMessage `json:"metadata"`
	// DataHash is the SHA-256 of the raw payload (hex), the integrity
	// anchor checked at retrieval.
	DataHash  string    `json:"data_hash"`
	SizeBytes int       `json:"size_bytes"`
	Submitted time.Time `json:"submitted"`
	// PrevTxID links to this source's previous record, forming the
	// per-source provenance chain.
	PrevTxID string `json:"prev_tx_id,omitempty"`
	// Seq is the per-source submission counter.
	Seq int `json:"seq"`
}

// TrustedRef is a compact reference observation kept in one slot of the
// cross-validation ring.
type TrustedRef struct {
	Label     string    `json:"label"`
	Latitude  float64   `json:"latitude"`
	Longitude float64   `json:"longitude"`
	At        time.Time `json:"at"`
	Source    string    `json:"source"`
}

// Well-known state keys.
const (
	adminKeyPrefix = "admin/"
	userKeyPrefix  = "user/"
	scoreKeyPrefix = "score/"
	recKeyPrefix   = "rec/"
	headKeyPrefix  = "head/"
	paramsKey      = "params"
	// The trusted-reference ring: refsNextKey counts the trusted
	// observations taken, and observation n lives in slot n%maxTrustedRefs
	// under refsSlotPrefix.
	refsNextKey    = "refs/next"
	refsSlotPrefix = "refs/slot/"
	// retiredRefsKey held the whole ring as one value in older builds.
	retiredRefsKey = "refs/recent"
)

// Statedb secondary-index names over the data namespace: the conditional
// retrieval dimensions the query functions and queryPage serve.
const (
	IndexLabel     = "label"
	IndexSource    = "source"
	IndexCamera    = "camera"
	IndexSubmitted = "submitted"
)

// DataIndexes declares the secondary indexes every peer maintains over
// the data namespace: the conditional-retrieval dimensions of the paper
// (label, source, camera) plus a time-ordered index on submission time.
// Peers must all run the same spec list — index reads feed endorsement
// results, so a divergent index set would split endorsement digests.
func DataIndexes() []statedb.IndexSpec {
	return []statedb.IndexSpec{
		{Name: IndexLabel, Namespace: DataCC, Field: "label"},
		{Name: IndexSource, Namespace: DataCC, Field: "source"},
		{Name: IndexCamera, Namespace: DataCC, Field: "metadata.camera_id"},
		{Name: IndexSubmitted, Namespace: DataCC, Field: "submitted"},
	}
}

// maxTrustedRefs is the number of slots in the cross-validation ring.
const maxTrustedRefs = 32
