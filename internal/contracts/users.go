package contracts

import (
	"encoding/json"
	"fmt"

	"socialchain/internal/chaincode"
)

// Users is the User Registration chaincode: it validates and records the
// credentials of data sources for audits and accountability.
type Users struct{}

// Name implements chaincode.Chaincode.
func (Users) Name() string { return UsersCC }

// Invoke implements chaincode.Chaincode.
func (Users) Invoke(stub chaincode.Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "registerUser":
		return registerUser(stub, args)
	case "getUser":
		return getUser(stub, args)
	case "userExists":
		return userExists(stub, args)
	case "deactivateUser":
		return setUserActive(stub, args, false)
	case "reactivateUser":
		return setUserActive(stub, args, true)
	case "listUsers":
		return listUsers(stub)
	default:
		return nil, fmt.Errorf("users: unknown function %q", fn)
	}
}

// requireAdmin verifies the transaction creator is an enrolled admin.
func requireAdmin(stub chaincode.Stub) error {
	resp, err := stub.InvokeChaincode(AdminCC, "adminExists", [][]byte{[]byte(stub.GetCreator().ID())})
	if err != nil {
		return err
	}
	if string(resp) != "true" {
		return fmt.Errorf("users: creator %s is not an enrolled admin", stub.GetCreator().ID())
	}
	return nil
}

func registerUser(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("users: registerUser expects one JSON record")
	}
	if err := requireAdmin(stub); err != nil {
		return nil, err
	}
	var rec UserRecord
	if err := json.Unmarshal(args[0], &rec); err != nil {
		return nil, fmt.Errorf("users: bad record: %w", err)
	}
	if rec.UserID == "" {
		return nil, fmt.Errorf("users: empty user id")
	}
	if len(rec.PubKey) == 0 {
		return nil, fmt.Errorf("users: user %s lacks a public key", rec.UserID)
	}
	if rec.Role != "trusted-source" && rec.Role != "untrusted-source" {
		return nil, fmt.Errorf("users: role %q must be trusted-source or untrusted-source", rec.Role)
	}
	existing, err := stub.GetState(userKeyPrefix + rec.UserID)
	if err != nil {
		return nil, err
	}
	if existing != nil {
		return nil, fmt.Errorf("users: user %s already registered", rec.UserID)
	}
	rec.Active = true
	rec.RegisteredAt = stub.GetTxTimestamp()
	rec.RegisteredBy = stub.GetCreator().ID()
	rec.Trusted = rec.Role == "trusted-source"
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if err := stub.PutState(userKeyPrefix+rec.UserID, b); err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf("user %s registered", rec.UserID)), nil
}

func getUser(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("users: getUser expects userId")
	}
	rec, err := stub.GetState(userKeyPrefix + string(args[0]))
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, fmt.Errorf("users: user %s not registered", args[0])
	}
	return rec, nil
}

func userExists(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("users: userExists expects userId")
	}
	rec, err := stub.GetState(userKeyPrefix + string(args[0]))
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return []byte("false"), nil
	}
	return []byte("true"), nil
}

func setUserActive(stub chaincode.Stub, args [][]byte, active bool) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("users: expects userId")
	}
	if err := requireAdmin(stub); err != nil {
		return nil, err
	}
	key := userKeyPrefix + string(args[0])
	raw, err := stub.GetState(key)
	if err != nil {
		return nil, err
	}
	if raw == nil {
		return nil, fmt.Errorf("users: user %s not registered", args[0])
	}
	var rec UserRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, err
	}
	rec.Active = active
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if err := stub.PutState(key, b); err != nil {
		return nil, err
	}
	return []byte("ok"), nil
}

func listUsers(stub chaincode.Stub) ([]byte, error) {
	kvs, err := stub.GetStateByRange(userKeyPrefix, userKeyPrefix+"\xff")
	if err != nil {
		return nil, err
	}
	out := make([]UserRecord, 0, len(kvs))
	for _, kv := range kvs {
		var rec UserRecord
		if err := json.Unmarshal(kv.Value, &rec); err != nil {
			return nil, fmt.Errorf("users: corrupt record at %s: %w", kv.Key, err)
		}
		out = append(out, rec)
	}
	return json.Marshal(out)
}
