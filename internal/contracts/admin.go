package contracts

import (
	"encoding/json"
	"fmt"

	"socialchain/internal/chaincode"
)

// Admin is the Admin Enrollment chaincode: it assigns admin IDs, prevents
// duplicates, and stores admin metadata for verification and auditing —
// the paper's enrollAdmin contract.
type Admin struct{}

// Name implements chaincode.Chaincode.
func (Admin) Name() string { return AdminCC }

// Invoke implements chaincode.Chaincode.
func (Admin) Invoke(stub chaincode.Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "enrollAdmin":
		return enrollAdmin(stub, args)
	case "adminExists":
		return adminExists(stub, args)
	case "listAdmins":
		return listAdmins(stub)
	default:
		return nil, fmt.Errorf("admin: unknown function %q", fn)
	}
}

// enrollAdmin enrolls a new administrator. The first admin bootstraps the
// channel; afterwards only existing admins may enroll others.
func enrollAdmin(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("admin: enrollAdmin expects adminId, got %d args", len(args))
	}
	adminID := string(args[0])
	if adminID == "" {
		return nil, fmt.Errorf("admin: empty adminId")
	}
	existing, err := stub.GetState(adminKeyPrefix + adminID)
	if err != nil {
		return nil, err
	}
	if existing != nil {
		return nil, fmt.Errorf("admin: Admin %s already exists", adminID)
	}
	// Bootstrap rule: if any admin exists, the creator must be one.
	admins, err := stub.GetStateByRange(adminKeyPrefix, adminKeyPrefix+"\xff")
	if err != nil {
		return nil, err
	}
	creator := stub.GetCreator().ID()
	enrolledBy := ""
	if len(admins) > 0 {
		creatorRec, err := stub.GetState(adminKeyPrefix + creator)
		if err != nil {
			return nil, err
		}
		if creatorRec == nil {
			return nil, fmt.Errorf("admin: creator %s is not an admin", creator)
		}
		enrolledBy = creator
	}
	rec := AdminRecord{
		AdminID:    adminID,
		Role:       "admin",
		CreatedAt:  stub.GetTxTimestamp(),
		EnrolledBy: enrolledBy,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if err := stub.PutState(adminKeyPrefix+adminID, b); err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf("Admin %s enrolled successfully", adminID)), nil
}

func adminExists(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("admin: adminExists expects adminId")
	}
	rec, err := stub.GetState(adminKeyPrefix + string(args[0]))
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return []byte("false"), nil
	}
	return []byte("true"), nil
}

func listAdmins(stub chaincode.Stub) ([]byte, error) {
	kvs, err := stub.GetStateByRange(adminKeyPrefix, adminKeyPrefix+"\xff")
	if err != nil {
		return nil, err
	}
	out := make([]AdminRecord, 0, len(kvs))
	for _, kv := range kvs {
		var rec AdminRecord
		if err := json.Unmarshal(kv.Value, &rec); err != nil {
			return nil, fmt.Errorf("admin: corrupt record at %s: %w", kv.Key, err)
		}
		out = append(out, rec)
	}
	return json.Marshal(out)
}
