package contracts

import (
	"encoding/json"
	"fmt"
	"strconv"

	"socialchain/internal/chaincode"
	"socialchain/internal/trust"
)

// Trust is the trust-scoring chaincode: it persists per-source trust states
// on-chain and folds in observations using the pure update rule from the
// trust package, so all endorsers agree on every score.
type Trust struct{}

// Name implements chaincode.Chaincode.
func (Trust) Name() string { return TrustCC }

// Invoke implements chaincode.Chaincode.
func (Trust) Invoke(stub chaincode.Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "initParams":
		return initTrustParams(stub, args)
	case "observe":
		return observeTrust(stub, args)
	case "getTrust":
		return getTrust(stub, args)
	case "isTrusted":
		return isTrusted(stub, args)
	case "listScores":
		return listScores(stub)
	default:
		return nil, fmt.Errorf("trust: unknown function %q", fn)
	}
}

// loadParams returns the channel's trust parameters (defaults when unset).
func loadParams(stub chaincode.Stub) (trust.Params, error) {
	raw, err := stub.GetState(paramsKey)
	if err != nil {
		return trust.Params{}, err
	}
	if raw == nil {
		return trust.DefaultParams(), nil
	}
	var p trust.Params
	if err := json.Unmarshal(raw, &p); err != nil {
		return trust.Params{}, fmt.Errorf("trust: corrupt params: %w", err)
	}
	return p, nil
}

func initTrustParams(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("trust: initParams expects params JSON")
	}
	var p trust.Params
	if err := json.Unmarshal(args[0], &p); err != nil {
		return nil, fmt.Errorf("trust: bad params: %w", err)
	}
	if err := stub.PutState(paramsKey, args[0]); err != nil {
		return nil, err
	}
	return []byte("ok"), nil
}

// observeTrust folds one observation: args are (sourceId, valid "0"/"1",
// crossValidation float).
func observeTrust(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("trust: observe expects sourceId, valid, crossVal")
	}
	sourceID := string(args[0])
	valid := string(args[1]) == "1" || string(args[1]) == "true"
	cv, err := strconv.ParseFloat(string(args[2]), 64)
	if err != nil {
		return nil, fmt.Errorf("trust: bad crossVal %q: %w", args[2], err)
	}
	p, err := loadParams(stub)
	if err != nil {
		return nil, err
	}
	key := scoreKeyPrefix + sourceID
	raw, err := stub.GetState(key)
	if err != nil {
		return nil, err
	}
	var st trust.State
	if raw == nil {
		st = trust.NewState(sourceID, p, stub.GetTxTimestamp())
	} else if st, err = trust.UnmarshalState(raw); err != nil {
		return nil, err
	}
	st = trust.Update(st, trust.Observation{Valid: valid, CrossValidation: cv, At: stub.GetTxTimestamp()}, p)
	if err := stub.PutState(key, st.Marshal()); err != nil {
		return nil, err
	}
	return st.Marshal(), nil
}

func getTrust(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("trust: getTrust expects sourceId")
	}
	p, err := loadParams(stub)
	if err != nil {
		return nil, err
	}
	raw, err := stub.GetState(scoreKeyPrefix + string(args[0]))
	if err != nil {
		return nil, err
	}
	if raw == nil {
		// Unknown sources start at the initial score.
		st := trust.NewState(string(args[0]), p, stub.GetTxTimestamp())
		return st.Marshal(), nil
	}
	return raw, nil
}

func isTrusted(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	raw, err := getTrust(stub, args)
	if err != nil {
		return nil, err
	}
	st, err := trust.UnmarshalState(raw)
	if err != nil {
		return nil, err
	}
	p, err := loadParams(stub)
	if err != nil {
		return nil, err
	}
	if trust.Trusted(st, p) {
		return []byte("true"), nil
	}
	return []byte("false"), nil
}

func listScores(stub chaincode.Stub) ([]byte, error) {
	kvs, err := stub.GetStateByRange(scoreKeyPrefix, scoreKeyPrefix+"\xff")
	if err != nil {
		return nil, err
	}
	out := make([]trust.State, 0, len(kvs))
	for _, kv := range kvs {
		st, err := trust.UnmarshalState(kv.Value)
		if err != nil {
			return nil, fmt.Errorf("trust: corrupt score at %s: %w", kv.Key, err)
		}
		out = append(out, st)
	}
	return json.Marshal(out)
}
