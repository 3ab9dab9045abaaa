package chaincode

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"socialchain/internal/msp"
	"socialchain/internal/statedb"
)

// TxContext carries the immutable context of one proposal execution.
type TxContext struct {
	TxID      string
	ChannelID string
	Creator   msp.Identity
	Timestamp time.Time
}

// maxInvokeDepth bounds cross-chaincode call nesting.
const maxInvokeDepth = 8

// Simulator executes a chaincode invocation against a snapshot of the world
// state, recording a read set (with versions) and buffering writes. It
// implements Stub. Cross-chaincode invocations run on the same simulator
// with the namespace switched, so one transaction carries a single merged
// read/write set spanning all touched namespaces.
type Simulator struct {
	ctx      TxContext
	ns       string
	depth    int
	sub      int // current batch call index, -1 outside InvokeBatch
	db       State
	history  *statedb.HistoryDB
	registry *Registry

	reads   map[string]statedb.ReadItem  // keyed by ns\x00key
	values  map[string][]byte            // committed value of each key GetState read first
	writes  map[string]statedb.WriteItem // keyed by ns\x00key
	events  []Event
	ordered []string // write nsKeys in first-write order
}

var _ Stub = (*Simulator)(nil)

// State is the committed world state a simulation reads (a *statedb.DB).
type State interface {
	GetState(ns, key string) (statedb.VersionedValue, bool)
	GetStateRange(ns, start, end string) []statedb.KV
	ExecuteQuery(ns string, sel statedb.Selector) ([]statedb.KV, error)
	Indexes() []statedb.IndexSpec
	IterIndex(name, valuePrefix string, limit, offset int, token string) (statedb.IndexPage, error)
}

// NewSimulator creates a simulator for one invocation of chaincode ns.
// registry enables InvokeChaincode and may be nil for isolated tests.
func NewSimulator(ctx TxContext, ns string, db State, history *statedb.HistoryDB) *Simulator {
	return &Simulator{
		ctx:     ctx,
		ns:      ns,
		sub:     -1,
		db:      db,
		history: history,
		reads:   make(map[string]statedb.ReadItem),
		values:  make(map[string][]byte),
		writes:  make(map[string]statedb.WriteItem),
	}
}

// WithRegistry enables cross-chaincode invocation.
func (s *Simulator) WithRegistry(r *Registry) *Simulator {
	s.registry = r
	return s
}

func (s *Simulator) nsKey(key string) string { return s.ns + "\x00" + key }

// GetState implements Stub: reads observe this simulation's own writes
// first, then committed state (recording the version for MVCC). The value
// a key's first GetState reads is kept, so reads repeat within a
// simulation and hit the engine once per key; a key first recorded by a
// range scan reads through.
func (s *Simulator) GetState(key string) ([]byte, error) {
	nk := s.nsKey(key)
	if w, ok := s.writes[nk]; ok {
		if w.IsDelete {
			return nil, nil
		}
		return append([]byte(nil), w.Value...), nil
	}
	v, kept := s.values[nk]
	if !kept {
		vv, ok := s.db.GetState(s.ns, key)
		if _, seen := s.reads[nk]; seen {
			return append([]byte(nil), vv.Value...), nil
		}
		s.recordRead(key, vv.Version, ok)
		v = vv.Value // the engine never mutates a stored buffer
		s.values[nk] = v
	}
	return append([]byte(nil), v...), nil
}

func (s *Simulator) recordRead(key string, v statedb.Version, exists bool) {
	nk := s.nsKey(key)
	if _, seen := s.reads[nk]; seen {
		return
	}
	s.reads[nk] = statedb.ReadItem{Namespace: s.ns, Key: key, Version: v, Exists: exists}
}

// PutState implements Stub.
func (s *Simulator) PutState(key string, value []byte) error {
	if key == "" {
		return errors.New("chaincode: empty key")
	}
	nk := s.nsKey(key)
	if _, ok := s.writes[nk]; !ok {
		s.ordered = append(s.ordered, nk)
	}
	s.writes[nk] = statedb.WriteItem{Namespace: s.ns, Key: key, Value: append([]byte(nil), value...)}
	return nil
}

// DelState implements Stub.
func (s *Simulator) DelState(key string) error {
	if key == "" {
		return errors.New("chaincode: empty key")
	}
	nk := s.nsKey(key)
	if _, ok := s.writes[nk]; !ok {
		s.ordered = append(s.ordered, nk)
	}
	s.writes[nk] = statedb.WriteItem{Namespace: s.ns, Key: key, IsDelete: true}
	return nil
}

// GetStateByRange implements Stub. Committed results are merged with this
// simulation's pending writes; each committed key read is recorded for MVCC.
func (s *Simulator) GetStateByRange(start, end string) ([]statedb.KV, error) {
	committed := s.db.GetStateRange(s.ns, start, end)
	return s.mergeScan(committed, func(k string) bool {
		if k < start {
			return false
		}
		if end != "" && k >= end {
			return false
		}
		return true
	}), nil
}

// mergeScan layers this namespace's pending writes over committed results.
func (s *Simulator) mergeScan(committed []statedb.KV, inRange func(string) bool) []statedb.KV {
	out := make([]statedb.KV, 0, len(committed))
	committedKeys := make(map[string]bool, len(committed))
	for _, kv := range committed {
		s.recordRead(kv.Key, kv.Version, true)
		committedKeys[kv.Key] = true
		if w, ok := s.writes[s.nsKey(kv.Key)]; ok {
			if w.IsDelete {
				continue
			}
			kv.Value = append([]byte(nil), w.Value...)
		}
		out = append(out, kv)
	}
	nsPrefix := s.ns + "\x00"
	for _, nk := range s.ordered {
		if !strings.HasPrefix(nk, nsPrefix) {
			continue
		}
		key := nk[len(nsPrefix):]
		w := s.writes[nk]
		if w.IsDelete || !inRange(key) || committedKeys[key] {
			continue
		}
		out = append(out, statedb.KV{Namespace: s.ns, Key: key, Value: append([]byte(nil), w.Value...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// GetQueryResult implements Stub. Rich queries run over committed state
// only (no phantom-read protection, matching Fabric).
func (s *Simulator) GetQueryResult(sel statedb.Selector) ([]statedb.KV, error) {
	return s.db.ExecuteQuery(s.ns, sel)
}

// GetIndexPage implements Stub. Like GetQueryResult it reads committed
// state only; the returned keys are world-state keys of this namespace
// that the caller resolves through GetState (which records MVCC reads).
// Indexes belonging to other namespaces are hidden, as state is.
func (s *Simulator) GetIndexPage(index, valuePrefix string, limit int, token string) (statedb.IndexPage, error) {
	for _, spec := range s.db.Indexes() {
		if spec.Name == index && spec.Namespace == s.ns {
			return s.db.IterIndex(index, valuePrefix, limit, 0, token)
		}
	}
	return statedb.IndexPage{}, fmt.Errorf("chaincode: no index %q in namespace %q", index, s.ns)
}

// GetHistoryForKey implements Stub.
func (s *Simulator) GetHistoryForKey(key string) ([]statedb.HistEntry, error) {
	if s.history == nil {
		return nil, errors.New("chaincode: history database unavailable")
	}
	return s.history.Get(s.ns, key)
}

// GetTxID implements Stub. Inside InvokeBatch it returns the current
// call's sub-transaction ID, so chaincode that derives state keys from the
// transaction ID (the data contract's record keys) stays collision-free
// across the calls of one batched envelope.
func (s *Simulator) GetTxID() string {
	if s.sub >= 0 {
		return SubTxID(s.ctx.TxID, s.sub)
	}
	return s.ctx.TxID
}

// GetChannelID implements Stub.
func (s *Simulator) GetChannelID() string { return s.ctx.ChannelID }

// GetCreator implements Stub.
func (s *Simulator) GetCreator() msp.Identity { return s.ctx.Creator }

// GetTxTimestamp implements Stub.
func (s *Simulator) GetTxTimestamp() time.Time { return s.ctx.Timestamp }

// SetEvent implements Stub. Events raised during InvokeBatch carry the
// sub-transaction ID of the call that set them.
func (s *Simulator) SetEvent(name string, payload []byte) error {
	if name == "" {
		return errors.New("chaincode: empty event name")
	}
	s.events = append(s.events, Event{TxID: s.GetTxID(), Name: name, Payload: append([]byte(nil), payload...)})
	return nil
}

// InvokeChaincode implements Stub.
func (s *Simulator) InvokeChaincode(name, fn string, args [][]byte) ([]byte, error) {
	if s.registry == nil {
		return nil, errors.New("chaincode: no registry for cross-chaincode invocation")
	}
	cc, ok := s.registry.Get(name)
	if !ok {
		return nil, fmt.Errorf("chaincode: unknown chaincode %q", name)
	}
	if s.depth >= maxInvokeDepth {
		return nil, fmt.Errorf("chaincode: invocation depth limit (%d) exceeded", maxInvokeDepth)
	}
	savedNS := s.ns
	s.ns = name
	s.depth++
	resp, err := cc.Invoke(s, fn, args)
	s.depth--
	s.ns = savedNS
	return resp, err
}

// BatchCall names one chaincode invocation inside a batched endorsement.
type BatchCall struct {
	Chaincode string
	Fn        string
	Args      [][]byte
}

// SubTxID derives the sub-transaction ID of call i within a batched
// envelope. The data contract keys records by transaction ID, so this is
// also the record ID a batched addData call stores under.
func SubTxID(txID string, i int) string {
	return fmt.Sprintf("%s.%d", txID, i)
}

// InvokeBatch is the batch endorsement entrypoint: it executes calls
// sequentially on this one simulator, producing a single merged read/write
// set, response list and event stream. Later calls observe earlier calls'
// uncommitted writes (a per-source provenance head updated by call i is
// read back by call i+1), which is what lets a batch of writes that would
// MVCC-conflict as individual envelopes commit atomically as one
// transaction. A failing call aborts the whole batch — the endorsement is
// all-or-nothing, exactly like a single invocation.
func (s *Simulator) InvokeBatch(calls []BatchCall) ([][]byte, error) {
	if s.registry == nil {
		return nil, errors.New("chaincode: no registry for batch invocation")
	}
	if len(calls) == 0 {
		return nil, errors.New("chaincode: empty batch")
	}
	savedNS := s.ns
	defer func() {
		s.ns = savedNS
		s.sub = -1
	}()
	responses := make([][]byte, len(calls))
	for i, c := range calls {
		cc, ok := s.registry.Get(c.Chaincode)
		if !ok {
			return nil, fmt.Errorf("chaincode: unknown chaincode %q", c.Chaincode)
		}
		s.sub = i
		s.ns = c.Chaincode
		resp, err := cc.Invoke(s, c.Fn, c.Args)
		if err != nil {
			return nil, fmt.Errorf("chaincode: batch call %d (%s.%s): %w", i, c.Chaincode, c.Fn, err)
		}
		responses[i] = resp
	}
	return responses, nil
}

// Events returns events set during simulation.
func (s *Simulator) Events() []Event { return s.events }

// RWSet finalises the simulation into a deterministic read/write set.
func (s *Simulator) RWSet() statedb.RWSet {
	rw := statedb.RWSet{}
	readKeys := make([]string, 0, len(s.reads))
	for k := range s.reads {
		readKeys = append(readKeys, k)
	}
	sort.Strings(readKeys)
	for _, k := range readKeys {
		rw.Reads = append(rw.Reads, s.reads[k])
	}
	writeKeys := append([]string(nil), s.ordered...)
	sort.Strings(writeKeys)
	for _, k := range writeKeys {
		rw.Writes = append(rw.Writes, s.writes[k])
	}
	return rw
}

// Registry holds deployed chaincodes by name.
type Registry struct {
	codes map[string]Chaincode
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{codes: make(map[string]Chaincode)}
}

// Register deploys a chaincode; duplicate names are an error.
func (r *Registry) Register(cc Chaincode) error {
	if _, ok := r.codes[cc.Name()]; ok {
		return fmt.Errorf("chaincode: %q already registered", cc.Name())
	}
	r.codes[cc.Name()] = cc
	return nil
}

// Get returns the chaincode registered under name.
func (r *Registry) Get(name string) (Chaincode, bool) {
	cc, ok := r.codes[name]
	return cc, ok
}

// Names lists registered chaincodes in sorted order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.codes))
	for n := range r.codes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
