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
	var meta detect.MetadataRecord
	if err := json.Unmarshal(args[0], &meta); err != nil {
		return nil, fmt.Errorf("validation: Invalid schema for transaction %s: metadata is not valid JSON: %w", stub.GetTxID(), err)
	}
	if _, err := validateRecord(stub, &meta, string(args[1])); err != nil {
		return nil, err
	}
	return []byte("valid"), nil
}

// validateRecord runs both checks on a decoded record and returns the
// source's user record; addData calls it in-process on its own decode.
func validateRecord(stub chaincode.Stub, meta *detect.MetadataRecord, payloadHash string) (UserRecord, error) {
	txID := stub.GetTxID()
	source := stub.GetCreator().ID()

	// --- Source authentication ---
	userRaw, err := stub.InvokeChaincode(UsersCC, "getUser", [][]byte{[]byte(source)})
	if err != nil {
		return UserRecord{}, fmt.Errorf("validation: Invalid source for transaction %s: %w", txID, err)
	}
	var user UserRecord
	if err := json.Unmarshal(userRaw, &user); err != nil {
		return UserRecord{}, fmt.Errorf("validation: corrupt user record: %w", err)
	}
	if !user.Active {
		return UserRecord{}, fmt.Errorf("validation: Invalid source for transaction %s: user %s deactivated", txID, source)
	}
	if !user.Trusted {
		// Untrusted sources must clear the on-chain trust gate.
		ok, err := stub.InvokeChaincode(TrustCC, "isTrusted", [][]byte{[]byte(source)})
		if err != nil {
			return UserRecord{}, err
		}
		if string(ok) != "true" {
			return UserRecord{}, fmt.Errorf("validation: Invalid source for transaction %s: trust score below threshold", txID)
		}
	}

	// --- Schema verification ---
	if err := checkSchema(meta, payloadHash); err != nil {
		return UserRecord{}, fmt.Errorf("validation: Invalid schema for transaction %s: %w", txID, err)
	}
	return user, nil
}

// checkSchema performs the paper's schema check over a metadata record:
// required fields, type sanity and hash integrity. The data_hash must be a
// well-formed SHA-256 equal to a non-empty payloadHash: the client
// pre-check passes the payload's hash, endorsement passes "" and checks
// the form only (the CID and the retrieve-side verify bind the payload).
func checkSchema(rec *detect.MetadataRecord, payloadHash string) error {
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
	// Cryptographic hash integrity.
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
