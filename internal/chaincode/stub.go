// Package chaincode implements the smart-contract runtime of the
// permissioned blockchain: the stub API contracts program against (state
// access, secondary-index pages, events, transaction context) and the
// transaction simulator that captures read/write sets for endorsement,
// mirroring Hyperledger Fabric's shim/chaincode model that the paper's
// contracts (§III-B) are written against.
package chaincode

import (
	"time"

	"socialchain/internal/msp"
	"socialchain/internal/statedb"
)

// Event is an application event emitted by a chaincode during execution;
// committers deliver events of valid transactions to subscribers.
type Event struct {
	TxID    string
	Name    string
	Payload []byte
}

// Stub is the interface chaincodes use to interact with the ledger world
// state and transaction context.
type Stub interface {
	// GetState returns the committed (or simulated-written) value of key.
	GetState(key string) ([]byte, error)
	// PutState stages a write of key.
	PutState(key string, value []byte) error
	// DelState stages a deletion of key.
	DelState(key string) error
	// GetStateByRange returns committed keys in [start, end), merged with
	// this simulation's own writes.
	GetStateByRange(start, end string) ([]statedb.KV, error)
	// GetQueryResult runs a rich selector query over committed state.
	GetQueryResult(sel statedb.Selector) ([]statedb.KV, error)
	// GetIndexPage pages through a secondary index of this chaincode's
	// namespace over committed state (no phantom-read protection, like
	// GetQueryResult). valuePrefix narrows by indexed value; limit bounds
	// the page (<= 0: no bound); token resumes a previous page.
	GetIndexPage(index, valuePrefix string, limit int, token string) (statedb.IndexPage, error)
	// GetTxID returns the executing transaction's ID.
	GetTxID() string
	// GetChannelID returns the channel name.
	GetChannelID() string
	// GetCreator returns the identity that submitted the proposal.
	GetCreator() msp.Identity
	// GetTxTimestamp returns the client-asserted proposal time.
	GetTxTimestamp() time.Time
	// SetEvent attaches a named event to the transaction.
	SetEvent(name string, payload []byte) error
	// InvokeChaincode calls another deployed chaincode within the same
	// transaction; its reads and writes merge into this transaction's
	// read/write set under the callee's namespace (as in Fabric's
	// same-channel cross-chaincode invocation).
	InvokeChaincode(name, fn string, args [][]byte) ([]byte, error)
}

// Chaincode is a deployed smart contract.
type Chaincode interface {
	// Name is the chaincode's registered name (its state namespace).
	Name() string
	// Invoke dispatches a function call. Returning an error marks the
	// proposal as failed; no writes are applied.
	Invoke(stub Stub, fn string, args [][]byte) ([]byte, error)
}
