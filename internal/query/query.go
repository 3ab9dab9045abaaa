// Package query implements the paper's query engine (Figure 1, steps A-D):
// a query processor that routes requests to the blockchain query executor
// (on-chain metadata, provenance, conditional queries) and the database
// query executor (raw payloads from IPFS by CID), and verifies every
// retrieved payload against its on-chain hash before returning it.
//
// On a multi-channel (sharded) deployment the engine holds one gateway per
// channel and scatter-gathers: point lookups probe channels until the
// owning one answers, list queries fan out over every channel and merge,
// and indexed pagination walks the channels in order behind an opaque
// Cursor that encodes both the channel and the index position within it.
// A single-gateway engine reduces exactly to the pre-sharding behaviour.
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

// Engine couples one blockchain gateway per channel with an IPFS node.
type Engine struct {
	gws   []*fabric.Gateway
	store *ipfs.Node
	// cache is the optional CID-keyed read-through payload cache.
	cache *payloadCache
	// workers bounds GetMany's fan-out (DefaultFetchWorkers when 0).
	workers int
}

// DefaultFetchWorkers bounds GetMany's concurrent fetches when the engine
// was not configured with WithWorkers.
const DefaultFetchWorkers = 8

// NewEngine builds a single-channel query engine.
func NewEngine(gw *fabric.Gateway, store *ipfs.Node) *Engine {
	return &Engine{gws: []*fabric.Gateway{gw}, store: store}
}

// NewShardedEngine builds a query engine over one gateway per channel (in
// channel order — cursors encode positions by that order). Point lookups
// probe the channels, list queries scatter-gather across all of them.
// At least one gateway is required.
func NewShardedEngine(gws []*fabric.Gateway, store *ipfs.Node) (*Engine, error) {
	if len(gws) == 0 {
		return nil, errors.New("query: sharded engine needs at least one gateway")
	}
	return &Engine{gws: append([]*fabric.Gateway(nil), gws...), store: store}, nil
}

// Channels returns how many channels the engine spans.
func (e *Engine) Channels() int { return len(e.gws) }

// WithPayloadCache enables a read-through payload cache bounded to
// capBytes: retrievals of a CID already fetched and verified skip the
// IPFS executor entirely. Returns the engine for chaining.
func (e *Engine) WithPayloadCache(capBytes int) *Engine {
	if capBytes > 0 {
		e.cache = newPayloadCache(capBytes)
	}
	return e
}

// WithWorkers sets the GetMany worker-pool bound. Returns the engine for
// chaining.
func (e *Engine) WithWorkers(n int) *Engine {
	e.workers = n
	return e
}

// CacheStats reports payload-cache effectiveness (zero value when no
// cache is configured).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
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
	// Limit, Cursor); Result.Next resumes the following page across
	// channel boundaries.
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
	// ("" = start). Cursors are opaque; they encode the channel and the
	// index position within it.
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
	// the iteration is exhausted across every channel.
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

// metadataTimed probes the channels for a record. A record lives on
// exactly one channel (its writer's home channel), but transaction IDs are
// random nonces that carry no routing information, so the lookup asks each
// channel in turn and keeps the first answer. Timing accumulates over the
// probes — that cost is what the channel-scoped write path avoids.
func (e *Engine) metadataTimed(txID string) (contracts.DataRecord, Timing, error) {
	var timing Timing
	var lastErr error
	for _, gw := range e.gws {
		start := time.Now()
		raw, err := gw.Evaluate(contracts.DataCC, "getData", []byte(txID))
		timing.Blockchain += time.Since(start)
		if err != nil {
			lastErr = err
			continue
		}
		var rec contracts.DataRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return contracts.DataRecord{}, timing, fmt.Errorf("query: corrupt record: %w", err)
		}
		return rec, timing, nil
	}
	return contracts.DataRecord{}, timing, lastErr
}

// Data fetches a record's metadata from the blockchain, its payload from
// IPFS, and verifies the payload hash — the full retrieval path of
// Figure 1 (steps A-D).
func (e *Engine) Data(txID string) (*Result, error) {
	rec, timing, err := e.metadataTimed(txID)
	if err != nil {
		return nil, err
	}
	payload, _, verr, err := e.fetchVerified(&rec, &timing)
	if err != nil {
		return nil, err
	}
	if verr != nil {
		return &Result{Records: []contracts.DataRecord{rec}, Payload: payload, Verified: false, Timing: timing}, verr
	}
	return &Result{Records: []contracts.DataRecord{rec}, Payload: payload, Verified: true, Timing: timing}, nil
}

// fetchVerified runs the database (IPFS) executor for one record through
// the payload cache: a hit serves the bytes without touching IPFS; a miss
// fetches and, when the hash checks out, admits the payload. Verification
// against the record's on-chain hash always runs. verr reports a hash
// mismatch (payload still returned); err reports fetch failure.
func (e *Engine) fetchVerified(rec *contracts.DataRecord, timing *Timing) (payload []byte, cached bool, verr, err error) {
	c, err := cid.Parse(rec.CID)
	if err != nil {
		return nil, false, nil, fmt.Errorf("query: record %s carries bad cid: %w", rec.TxID, err)
	}
	start := time.Now()
	if e.cache != nil {
		payload, cached = e.cache.get(rec.CID)
	}
	if !cached {
		payload, err = e.store.Get(c)
	}
	timing.IPFS = time.Since(start)
	if err != nil {
		return nil, false, nil, fmt.Errorf("query: ipfs fetch for %s: %w", rec.TxID, err)
	}
	start = time.Now()
	verr = provenance.VerifyPayload(rec, payload)
	timing.Verify = time.Since(start)
	if verr == nil && !cached && e.cache != nil {
		e.cache.put(rec.CID, payload)
	}
	return payload, cached, verr, nil
}

// BatchItem is one element of a GetMany response. Err carries the item's
// failure (metadata lookup, fetch, or ErrNotVerified on hash mismatch);
// the batch itself never fails as a whole.
type BatchItem struct {
	TxID     string
	Record   contracts.DataRecord
	Payload  []byte
	Verified bool
	// FromCache marks payloads served by the read-through cache.
	FromCache bool
	Timing    Timing
	Err       error
}

// GetMany runs the full retrieval path for a batch of transaction IDs,
// fanning metadata lookup (channel probe, on sharded engines), payload
// fetch and hash verification across a bounded worker pool — the batch
// counterpart of Data. workers <= 0 uses the engine's configured bound
// (WithWorkers, default DefaultFetchWorkers); results are positionally
// aligned with txIDs.
func (e *Engine) GetMany(txIDs []string, workers int) []BatchItem {
	if workers <= 0 {
		workers = e.workers
	}
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
	payload, cached, verr, err := e.fetchVerified(&rec, &item.Timing)
	if err != nil {
		item.Err = err
		return item
	}
	item.Payload = payload
	item.FromCache = cached
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
	// Next resumes the following page; empty when exhausted. On a sharded
	// engine the cursor carries the iteration across channel boundaries —
	// callers just keep passing it back.
	Next   string
	Timing Timing
}

// Page runs one page of a secondary-index query (contracts.IndexLabel and
// friends): records whose indexed value begins with value, in (value, key)
// order within each channel, at most limit per page (default 100). cursor
// resumes from a previous page's Next; the empty cursor starts at the
// first channel. When one channel's index is exhausted the iteration
// moves to the next channel, so a page near a boundary may come back
// short with Next still set — only an empty Next ends the iteration.
func (e *Engine) Page(index, value string, limit int, cursor string) (*PageResult, error) {
	if limit <= 0 {
		limit = 100
	}
	cur, err := DecodeCursor(cursor)
	if err != nil {
		return nil, err
	}
	if cur.Channel >= len(e.gws) {
		return nil, fmt.Errorf("query: cursor channel %d out of range (%d channels)", cur.Channel, len(e.gws))
	}
	out := &PageResult{}
	for {
		start := time.Now()
		raw, err := e.gws[cur.Channel].Evaluate(contracts.DataCC, "queryPage",
			[]byte(index), []byte(value), []byte(strconv.Itoa(limit)), []byte(cur.Token))
		out.Timing.Blockchain += time.Since(start)
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
		if page.Next != "" {
			// More of this channel's index remains.
			out.Next = Cursor{Channel: cur.Channel, Token: page.Next}.Encode()
			return out, nil
		}
		// This channel is exhausted; hand the cursor to the next one. An
		// empty page from an empty channel keeps scanning forward so
		// callers never see a no-progress page with a non-empty cursor.
		if cur.Channel+1 >= len(e.gws) {
			out.Next = ""
			return out, nil
		}
		cur = Cursor{Channel: cur.Channel + 1}
		if len(out.Records) > 0 {
			out.Next = cur.Encode()
			return out, nil
		}
	}
}

// listQuery runs a list-returning chaincode query, fanning out over every
// channel and concatenating the per-channel answers in channel order.
func (e *Engine) listQuery(fn, arg string) (*Result, error) {
	type chanResult struct {
		recs []contracts.DataRecord
		err  error
	}
	start := time.Now()
	results := make([]chanResult, len(e.gws))
	var wg sync.WaitGroup
	for i, gw := range e.gws {
		wg.Add(1)
		go func(i int, gw *fabric.Gateway) {
			defer wg.Done()
			raw, err := gw.Evaluate(contracts.DataCC, fn, []byte(arg))
			if err != nil {
				results[i].err = err
				return
			}
			var rawRecs []json.RawMessage
			if err := json.Unmarshal(raw, &rawRecs); err != nil {
				results[i].err = fmt.Errorf("query: corrupt list: %w", err)
				return
			}
			recs := make([]contracts.DataRecord, 0, len(rawRecs))
			for _, r := range rawRecs {
				var rec contracts.DataRecord
				if err := json.Unmarshal(r, &rec); err != nil {
					results[i].err = fmt.Errorf("query: corrupt record in list: %w", err)
					return
				}
				recs = append(recs, rec)
			}
			results[i].recs = recs
		}(i, gw)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var recs []contracts.DataRecord
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		recs = append(recs, r.recs...)
	}
	if recs == nil {
		recs = []contracts.DataRecord{}
	}
	return &Result{Records: recs, Timing: Timing{Blockchain: elapsed}}, nil
}

// Provenance fetches and verifies a record's source chain (newest first).
// A source's whole chain lives on its home channel, so the lookup probes
// channels like metadataTimed does and verifies the first answer.
func (e *Engine) Provenance(txID string) ([]contracts.DataRecord, error) {
	var lastErr error
	for _, gw := range e.gws {
		raw, err := gw.Evaluate(contracts.DataCC, "getProvenance", []byte(txID))
		if err != nil {
			lastErr = err
			continue
		}
		var rawRecs []json.RawMessage
		if err := json.Unmarshal(raw, &rawRecs); err != nil {
			return nil, err
		}
		chain := make([]contracts.DataRecord, 0, len(rawRecs))
		for _, r := range rawRecs {
			var rec contracts.DataRecord
			if err := json.Unmarshal(r, &rec); err != nil {
				return nil, err
			}
			chain = append(chain, rec)
		}
		if err := provenance.VerifyChain(chain); err != nil {
			return chain, err
		}
		return chain, nil
	}
	return nil, lastErr
}

// ErrNotVerified marks retrievals whose payload failed the integrity check.
var ErrNotVerified = errors.New("query: retrieved payload failed verification")
