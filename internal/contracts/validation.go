package contracts

import (
	"encoding/hex"
	"encoding/json"
	"fmt"

	"socialchain/internal/chaincode"
	"socialchain/internal/detect"
)

// Validation is the validation chaincode of §III-A. Mirroring the paper's
// validateTransaction, every endorsing peer independently performs:
//
//  1. Source authentication — the submitting identity must be a registered,
//     active user, and untrusted sources must clear the trust-score gate;
//  2. Schema verification — completeness, correct data types and
//     cryptographic hash integrity of the metadata record.
type Validation struct{}

// Name implements chaincode.Chaincode.
func (Validation) Name() string { return ValidationCC }

// Invoke implements chaincode.Chaincode.
func (Validation) Invoke(stub chaincode.Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "validateTransaction", "checkTransaction":
		// checkTransaction is the name clients pre-validate under before
		// paying for IPFS storage; neither writes anything.
		return validateTransaction(stub, args)
	default:
		return nil, fmt.Errorf("validation: unknown function %q", fn)
	}
}

// validateTransaction checks (metadataJSON, payloadHashHex) for the calling
// transaction. The outcome is the transaction's own: a record is on chain
// only if it validated.
func validateTransaction(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("validation: expects metadata JSON and payload hash")
	}
	metadataJSON, payloadHash := args[0], string(args[1])
	txID := stub.GetTxID()
	source := stub.GetCreator().ID()

	// --- Source authentication ---
	userRaw, err := stub.InvokeChaincode(UsersCC, "getUser", [][]byte{[]byte(source)})
	if err != nil {
		return nil, fmt.Errorf("validation: Invalid source for transaction %s: %w", txID, err)
	}
	var user UserRecord
	if err := json.Unmarshal(userRaw, &user); err != nil {
		return nil, fmt.Errorf("validation: corrupt user record: %w", err)
	}
	if !user.Active {
		return nil, fmt.Errorf("validation: Invalid source for transaction %s: user %s deactivated", txID, source)
	}
	if !user.Trusted {
		// Untrusted sources must clear the on-chain trust gate.
		ok, err := stub.InvokeChaincode(TrustCC, "isTrusted", [][]byte{[]byte(source)})
		if err != nil {
			return nil, err
		}
		if string(ok) != "true" {
			return nil, fmt.Errorf("validation: Invalid source for transaction %s: trust score below threshold", txID)
		}
	}

	// --- Schema verification ---
	if err := VerifySchema(metadataJSON, payloadHash); err != nil {
		return nil, fmt.Errorf("validation: Invalid schema for transaction %s: %w", txID, err)
	}
	return []byte("valid"), nil
}

// VerifySchema performs the paper's schema check over a metadata record:
// required fields, type sanity and hash integrity. Exported so the client
// SDK (core) can pre-validate before shipping payloads to IPFS.
func VerifySchema(metadataJSON []byte, payloadHash string) error {
	var rec detect.MetadataRecord
	if err := json.Unmarshal(metadataJSON, &rec); err != nil {
		return fmt.Errorf("metadata is not valid JSON: %w", err)
	}
	if rec.FrameID == "" {
		return fmt.Errorf("missing frame_id")
	}
	if rec.CameraID == "" {
		return fmt.Errorf("missing camera_id")
	}
	if rec.Platform != "static" && rec.Platform != "drone" {
		return fmt.Errorf("platform %q must be static or drone", rec.Platform)
	}
	if rec.CapturedAt.IsZero() {
		return fmt.Errorf("missing captured_at timestamp")
	}
	if rec.SizeBytes <= 0 {
		return fmt.Errorf("size_bytes must be positive")
	}
	if rec.Location.Latitude < -90 || rec.Location.Latitude > 90 {
		return fmt.Errorf("latitude %f out of range", rec.Location.Latitude)
	}
	if rec.Location.Longitude < -180 || rec.Location.Longitude > 180 {
		return fmt.Errorf("longitude %f out of range", rec.Location.Longitude)
	}
	if len(rec.Detections) == 0 {
		return fmt.Errorf("record has no detections")
	}
	for i, d := range rec.Detections {
		if d.Label == "" {
			return fmt.Errorf("detection %d missing label", i)
		}
		if d.Confidence < 0 || d.Confidence > 1 {
			return fmt.Errorf("detection %d confidence %f out of [0,1]", i, d.Confidence)
		}
		if d.BoundingBox.X1 < 0 || d.BoundingBox.Y1 < 0 ||
			d.BoundingBox.X2 <= d.BoundingBox.X1 || d.BoundingBox.Y2 <= d.BoundingBox.Y1 {
			return fmt.Errorf("detection %d bounding box malformed", i)
		}
		if d.Timestamp.IsZero() {
			return fmt.Errorf("detection %d missing timestamp", i)
		}
	}
	// Cryptographic hash integrity: the metadata's data_hash must be a
	// well-formed SHA-256 and match the payload hash presented.
	if len(rec.DataHash) != 64 {
		return fmt.Errorf("data_hash must be 64 hex chars, got %d", len(rec.DataHash))
	}
	if _, err := hex.DecodeString(rec.DataHash); err != nil {
		return fmt.Errorf("data_hash is not hex: %w", err)
	}
	if payloadHash != "" && rec.DataHash != payloadHash {
		return fmt.Errorf("data_hash %s does not match payload hash %s", rec.DataHash, payloadHash)
	}
	return nil
}
