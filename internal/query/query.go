// Package query implements the paper's query engine (Figure 1, steps A-D):
// a query processor that routes requests to the blockchain query executor
// (on-chain metadata, provenance, conditional queries) and the database
// query executor (raw payloads from IPFS by CID), and verifies every
// retrieved payload against its on-chain hash before returning it.
//
// The engine reads through one gateway on the deployment's one channel;
// indexed pagination hands the world state's index token back to the
// caller as the cursor.
package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"socialchain/internal/cid"
	"socialchain/internal/contracts"
	"socialchain/internal/fabric"
	"socialchain/internal/ipfs"
	"socialchain/internal/provenance"
	"socialchain/internal/statedb"
)

// Engine couples a blockchain gateway with an IPFS node.
type Engine struct {
	gw    *fabric.Gateway
	store *ipfs.Node
}

// DefaultFetchWorkers bounds GetMany's concurrent fetches when the caller
// passes no bound.
const DefaultFetchWorkers = 8

// NewEngine builds a query engine.
func NewEngine(gw *fabric.Gateway, store *ipfs.Node) *Engine {
	return &Engine{gw: gw, store: store}
}

// Kind routes a Request.
type Kind int

// Request kinds, one per executor path.
const (
	// ByTxID fetches one record and its payload.
	ByTxID Kind = iota
	// ByLabel lists records whose primary label matches.
	ByLabel
	// BySource lists records submitted by one source.
	BySource
	// ByCamera lists records captured by one camera.
	ByCamera
	// BySelector runs a rich JSON selector over records.
	BySelector
	// ProvenanceOf walks a record's source chain.
	ProvenanceOf
	// ByIndex pages through a statedb secondary index (Request.Index,
	// Limit, Cursor); Result.Next resumes the following page.
	ByIndex
	// ByTxIDs runs the batch retrieval path (Request.Values) and returns
	// per-item results in Result.Items.
	ByTxIDs
)

// Request is a parsed query for the processor.
type Request struct {
	Kind     Kind
	Value    string           // tx id, label, source or camera
	Selector statedb.Selector // for BySelector
	// FetchPayload also retrieves and verifies raw bytes from IPFS (only
	// meaningful for ByTxID).
	FetchPayload bool
	// Values are the transaction IDs of a ByTxIDs batch request.
	Values []string
	// Index names the statedb secondary index of a ByIndex request
	// (contracts.IndexLabel and friends); Value narrows it by prefix.
	Index string
	// Limit bounds a ByIndex page (default 100).
	Limit int
	// Cursor resumes a ByIndex iteration from a previous Result.Next
	// ("" = start). Cursors are opaque.
	Cursor string
}

// Timing breaks a query's latency into its executor components, the
// quantities Figure 6 plots.
type Timing struct {
	// Blockchain is time spent in the blockchain query executor.
	Blockchain time.Duration
	// IPFS is time spent in the database (IPFS) query executor.
	IPFS time.Duration
	// Verify is hash-integrity checking time.
	Verify time.Duration
}

// Total returns the summed latency.
func (t Timing) Total() time.Duration { return t.Blockchain + t.IPFS + t.Verify }

// Result is the processor's answer.
type Result struct {
	Records []contracts.DataRecord
	// Payload is the verified raw data (ByTxID with FetchPayload).
	Payload []byte
	// Verified reports that the payload matched its on-chain hash.
	Verified bool
	// Items are the per-transaction results of a ByTxIDs batch request.
	Items []BatchItem
	// Next resumes the following page of a ByIndex request; empty when
	// the iteration is exhausted.
	Next   string
	Timing Timing
}

// Execute routes a request to its executors, as the paper's query processor
// does.
func (e *Engine) Execute(req Request) (*Result, error) {
	switch req.Kind {
	case ByTxID:
		if req.FetchPayload {
			return e.Data(req.Value)
		}
		rec, timing, err := e.metadataTimed(req.Value)
		if err != nil {
			return nil, err
		}
		return &Result{Records: []contracts.DataRecord{rec}, Timing: timing}, nil
	case ByLabel:
		return e.listQuery("queryByLabel", req.Value)
	case BySource:
		return e.listQuery("queryBySource", req.Value)
	case ByCamera:
		return e.listQuery("queryByCamera", req.Value)
	case BySelector:
		sel, err := json.Marshal(req.Selector)
		if err != nil {
			return nil, err
		}
		return e.listQuery("querySelector", string(sel))
	case ProvenanceOf:
		recs, err := e.Provenance(req.Value)
		if err != nil {
			return nil, err
		}
		return &Result{Records: recs}, nil
	case ByIndex:
		page, err := e.Page(req.Index, req.Value, req.Limit, req.Cursor)
		if err != nil {
			return nil, err
		}
		return &Result{Records: page.Records, Next: page.Next, Timing: page.Timing}, nil
	case ByTxIDs:
		return &Result{Items: e.GetMany(req.Values, 0)}, nil
	default:
		return nil, fmt.Errorf("query: unknown request kind %d", req.Kind)
	}
}

// Metadata fetches one on-chain record (blockchain executor only).
func (e *Engine) Metadata(txID string) (contracts.DataRecord, error) {
	rec, _, err := e.metadataTimed(txID)
	return rec, err
}

// metadataTimed fetches a record from the blockchain executor, timing it.
func (e *Engine) metadataTimed(txID string) (contracts.DataRecord, Timing, error) {
	start := time.Now()
	raw, err := e.gw.Evaluate(contracts.DataCC, "getData", []byte(txID))
	timing := Timing{Blockchain: time.Since(start)}
	if err != nil {
		return contracts.DataRecord{}, timing, err
	}
	var rec contracts.DataRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return contracts.DataRecord{}, timing, fmt.Errorf("query: corrupt record: %w", err)
	}
	return rec, timing, nil
}

// Data fetches a record's metadata from the blockchain, its payload from
// IPFS, and verifies the payload hash — the full retrieval path of
// Figure 1 (steps A-D).
func (e *Engine) Data(txID string) (*Result, error) {
	rec, timing, err := e.metadataTimed(txID)
	if err != nil {
		return nil, err
	}
	payload, verr, err := e.fetchVerified(&rec, &timing)
	if err != nil {
		return nil, err
	}
	if verr != nil {
		return &Result{Records: []contracts.DataRecord{rec}, Payload: payload, Verified: false, Timing: timing}, verr
	}
	return &Result{Records: []contracts.DataRecord{rec}, Payload: payload, Verified: true, Timing: timing}, nil
}

// fetchVerified runs the database (IPFS) executor for one record and
// verifies the payload against the record's on-chain hash. verr reports a
// hash mismatch (payload still returned); err reports fetch failure.
func (e *Engine) fetchVerified(rec *contracts.DataRecord, timing *Timing) (payload []byte, verr, err error) {
	c, err := cid.Parse(rec.CID)
	if err != nil {
		return nil, nil, fmt.Errorf("query: record %s carries bad cid: %w", rec.TxID, err)
	}
	start := time.Now()
	payload, err = e.store.Get(c)
	timing.IPFS = time.Since(start)
	if err != nil {
		return nil, nil, fmt.Errorf("query: ipfs fetch for %s: %w", rec.TxID, err)
	}
	start = time.Now()
	verr = provenance.VerifyPayload(rec, payload)
	timing.Verify = time.Since(start)
	return payload, verr, nil
}

// BatchItem is one element of a GetMany response. Err carries the item's
// failure (metadata lookup, fetch, or ErrNotVerified on hash mismatch);
// the batch itself never fails as a whole.
type BatchItem struct {
	TxID     string
	Record   contracts.DataRecord
	Payload  []byte
	Verified bool
	Timing   Timing
	Err      error
}

// GetMany runs the full retrieval path for a batch of transaction IDs,
// fanning metadata lookup, payload fetch and hash verification across a
// bounded worker pool — the batch counterpart of Data. workers <= 0 uses
// DefaultFetchWorkers; results are positionally aligned with txIDs.
func (e *Engine) GetMany(txIDs []string, workers int) []BatchItem {
	if workers <= 0 {
		workers = DefaultFetchWorkers
	}
	if workers > len(txIDs) {
		workers = len(txIDs)
	}
	out := make([]BatchItem, len(txIDs))
	if len(txIDs) == 0 {
		return out
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = e.getOne(txIDs[i])
			}
		}()
	}
	for i := range txIDs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// getOne is one worker's retrieval of one transaction.
func (e *Engine) getOne(txID string) BatchItem {
	item := BatchItem{TxID: txID}
	rec, timing, err := e.metadataTimed(txID)
	item.Timing = timing
	if err != nil {
		item.Err = err
		return item
	}
	item.Record = rec
	payload, verr, err := e.fetchVerified(&rec, &item.Timing)
	if err != nil {
		item.Err = err
		return item
	}
	item.Payload = payload
	if verr != nil {
		item.Err = fmt.Errorf("%w: %v", ErrNotVerified, verr)
		return item
	}
	item.Verified = true
	return item
}

// PageResult is one page of an indexed metadata query.
type PageResult struct {
	Records []contracts.DataRecord
	// Next resumes the following page; empty when exhausted.
	Next   string
	Timing Timing
}

// Page runs one page of a secondary-index query (contracts.IndexLabel and
// friends): records whose indexed value begins with value, in (value, key)
// order, at most limit per page (default 100). cursor resumes from a
// previous page's Next ("" = start); an empty Next ends the iteration.
func (e *Engine) Page(index, value string, limit int, cursor string) (*PageResult, error) {
	if limit <= 0 {
		limit = 100
	}
	start := time.Now()
	raw, err := e.gw.Evaluate(contracts.DataCC, "queryPage",
		[]byte(index), []byte(value), []byte(strconv.Itoa(limit)), []byte(cursor))
	out := &PageResult{Timing: Timing{Blockchain: time.Since(start)}}
	if err != nil {
		return nil, err
	}
	var page contracts.RecordPage
	if err := json.Unmarshal(raw, &page); err != nil {
		return nil, fmt.Errorf("query: corrupt page: %w", err)
	}
	for _, r := range page.Records {
		var rec contracts.DataRecord
		if err := json.Unmarshal(r, &rec); err != nil {
			return nil, fmt.Errorf("query: corrupt record in page: %w", err)
		}
		out.Records = append(out.Records, rec)
	}
	out.Next = page.Next
	return out, nil
}

// listQuery runs a list-returning chaincode query.
func (e *Engine) listQuery(fn, arg string) (*Result, error) {
	start := time.Now()
	recs, err := e.records(fn, arg)
	if err != nil {
		return nil, err
	}
	return &Result{Records: recs, Timing: Timing{Blockchain: time.Since(start)}}, nil
}

// records evaluates a data-chaincode function that answers a JSON list of
// records and decodes it.
func (e *Engine) records(fn, arg string) ([]contracts.DataRecord, error) {
	raw, err := e.gw.Evaluate(contracts.DataCC, fn, []byte(arg))
	if err != nil {
		return nil, err
	}
	var rawRecs []json.RawMessage
	if err := json.Unmarshal(raw, &rawRecs); err != nil {
		return nil, fmt.Errorf("query: corrupt list: %w", err)
	}
	recs := make([]contracts.DataRecord, 0, len(rawRecs))
	for _, r := range rawRecs {
		var rec contracts.DataRecord
		if err := json.Unmarshal(r, &rec); err != nil {
			return nil, fmt.Errorf("query: corrupt record in list: %w", err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// Provenance fetches and verifies a record's source chain (newest first).
func (e *Engine) Provenance(txID string) ([]contracts.DataRecord, error) {
	chain, err := e.records("getProvenance", txID)
	if err != nil {
		return nil, err
	}
	return chain, provenance.VerifyChain(chain)
}

// ErrNotVerified marks retrievals whose payload failed the integrity check.
var ErrNotVerified = errors.New("query: retrieved payload failed verification")
