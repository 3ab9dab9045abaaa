package contracts

import (
	"encoding/json"
	"fmt"
	"strconv"

	"socialchain/internal/chaincode"
	"socialchain/internal/detect"
	"socialchain/internal/statedb"
	"socialchain/internal/trust"
)

// Data is the Data Upload / Data Retrieval chaincode: it records the IPFS
// CID and extracted metadata on-chain (the paper's addDataToIPFS /
// getDataFromIPFS pair), answers conditional queries from the world
// state's secondary indexes (DataIndexes), links records into per-source
// provenance chains, and feeds the trust engine with validation outcomes
// and cross-validation scores.
type Data struct{}

// Name implements chaincode.Chaincode.
func (Data) Name() string { return DataCC }

// Invoke implements chaincode.Chaincode.
func (Data) Invoke(stub chaincode.Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "addData":
		return addData(stub, args)
	case "getData":
		return getData(stub, args)
	case "queryByLabel":
		return queryByIndex(stub, IndexLabel, args)
	case "queryBySource":
		return queryByIndex(stub, IndexSource, args)
	case "queryByCamera":
		return queryByIndex(stub, IndexCamera, args)
	case "querySelector":
		return querySelector(stub, args)
	case "queryPage":
		return queryPage(stub, args)
	case "getProvenance":
		return getProvenance(stub, args)
	case "getHistory":
		return getHistory(stub, args)
	case "count":
		return countRecords(stub)
	default:
		return nil, fmt.Errorf("data: unknown function %q", fn)
	}
}

// addData stores a validated record: args are (cid, metadataJSON). The
// payload itself is already in IPFS; only the CID and metadata go on-chain.
func addData(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("data: addData expects cid and metadata JSON")
	}
	cidStr := string(args[0])
	metadataJSON := args[1]
	if cidStr == "" {
		return nil, fmt.Errorf("data: empty cid")
	}
	var meta detect.MetadataRecord
	if err := json.Unmarshal(metadataJSON, &meta); err != nil {
		return nil, fmt.Errorf("data: bad metadata: %w", err)
	}

	// Every endorser re-checks source authentication and schema (§III-A)
	// on the record decoded above, as the validation chaincode does.
	user, err := validateRecord(stub, &meta, "")
	if err != nil {
		return nil, err
	}

	txID := stub.GetTxID()
	source := stub.GetCreator().ID()

	if existing, err := stub.GetState(recKeyPrefix + txID); err != nil {
		return nil, err
	} else if existing != nil {
		return nil, fmt.Errorf("data: record %s already exists", txID)
	}

	// Provenance: link to this source's previous record.
	prevTxID := ""
	seq := 1
	headRaw, err := stub.GetState(headKeyPrefix + source)
	if err != nil {
		return nil, err
	}
	if headRaw != nil {
		var head struct {
			TxID string `json:"tx_id"`
			Seq  int    `json:"seq"`
		}
		if err := json.Unmarshal(headRaw, &head); err != nil {
			return nil, fmt.Errorf("data: corrupt head for %s: %w", source, err)
		}
		prevTxID = head.TxID
		seq = head.Seq + 1
	}

	label := meta.PrimaryLabel()
	rec := DataRecord{
		TxID:       txID,
		CID:        cidStr,
		Label:      label,
		Source:     source,
		SourceRole: user.Role,
		Metadata:   metadataJSON,
		DataHash:   meta.DataHash,
		SizeBytes:  meta.SizeBytes,
		Submitted:  stub.GetTxTimestamp(),
		PrevTxID:   prevTxID,
		Seq:        seq,
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if err := stub.PutState(recKeyPrefix+txID, recJSON); err != nil {
		return nil, err
	}
	headJSON, err := json.Marshal(map[string]any{"tx_id": txID, "seq": seq})
	if err != nil {
		return nil, err
	}
	if err := stub.PutState(headKeyPrefix+source, headJSON); err != nil {
		return nil, err
	}

	// Cross-validation and trust feedback.
	cv := 0.5
	next, err := loadRefsNext(stub)
	if err != nil {
		return nil, err
	}
	if user.Trusted {
		// Trusted observations join the reference ring for future
		// cross-validation of crowd-sourced data, overwriting the oldest.
		if err := storeTrustedRef(stub, next, TrustedRef{
			Label:     label,
			Latitude:  meta.Location.Latitude,
			Longitude: meta.Location.Longitude,
			At:        meta.CapturedAt,
			Source:    source,
		}); err != nil {
			return nil, err
		}
	} else {
		refs, err := loadTrustedRefs(stub)
		if err != nil {
			return nil, err
		}
		cv = trust.CrossValidate(trust.Comparable{
			Label:     label,
			Latitude:  meta.Location.Latitude,
			Longitude: meta.Location.Longitude,
			At:        meta.CapturedAt,
		}, refs)
	}
	cvStr := strconv.FormatFloat(cv, 'f', 6, 64)
	if _, err := stub.InvokeChaincode(TrustCC, "observe",
		[][]byte{[]byte(source), []byte("1"), []byte(cvStr)}); err != nil {
		return nil, err
	}

	if err := stub.SetEvent("data.added", []byte(txID)); err != nil {
		return nil, err
	}
	return []byte(cidStr), nil
}

// loadRefsNext reads how many trusted observations the reference ring has
// taken. Every trusted store writes this counter, so its recorded read is
// the MVCC guard for the whole ring: a store that read the ring conflicts
// with any trusted store committed after it. A world state still holding
// the single-key ring of older builds is refused.
func loadRefsNext(stub chaincode.Stub) (int, error) {
	raw, err := stub.GetState(refsNextKey)
	if err != nil {
		return 0, err
	}
	if raw != nil {
		n, err := strconv.Atoi(string(raw))
		if err != nil {
			return 0, fmt.Errorf("data: corrupt %s: %w", refsNextKey, err)
		}
		return n, nil
	}
	if old, err := stub.GetState(retiredRefsKey); err != nil {
		return 0, err
	} else if old != nil {
		return 0, fmt.Errorf("data: the world state holds %s, the retired single-key trusted-reference ring layout; start from an empty data directory", retiredRefsKey)
	}
	return 0, nil
}

// storeTrustedRef writes trusted observation next into its ring slot and
// advances the counter. A slot holds a one-element JSON array, not an
// object: the statedb indexes and selector queries read JSON objects only,
// so a reference never shows up as a record.
func storeTrustedRef(stub chaincode.Stub, next int, ref TrustedRef) error {
	b, err := json.Marshal([]TrustedRef{ref})
	if err != nil {
		return err
	}
	if err := stub.PutState(fmt.Sprintf("%s%02d", refsSlotPrefix, next%maxTrustedRefs), b); err != nil {
		return err
	}
	return stub.PutState(refsNextKey, []byte(strconv.Itoa(next+1)))
}

// loadTrustedRefs reads every filled slot of the reference ring.
func loadTrustedRefs(stub chaincode.Stub) ([]trust.Comparable, error) {
	kvs, err := stub.GetStateByRange(refsSlotPrefix, refsSlotPrefix+"\xff")
	if err != nil {
		return nil, err
	}
	refs := make([]trust.Comparable, 0, len(kvs))
	for _, kv := range kvs {
		var slot []TrustedRef
		if err := json.Unmarshal(kv.Value, &slot); err != nil {
			return nil, fmt.Errorf("data: corrupt trusted ref %s: %w", kv.Key, err)
		}
		for _, r := range slot {
			refs = append(refs, trust.Comparable{Label: r.Label, Latitude: r.Latitude, Longitude: r.Longitude, At: r.At})
		}
	}
	return refs, nil
}

// getData returns the on-chain record for a transaction ID — the paper's
// getDataFromIPFS metadata lookup (the raw bytes come from IPFS via the
// query engine).
func getData(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("data: getData expects txId")
	}
	rec, err := stub.GetState(recKeyPrefix + string(args[0]))
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, fmt.Errorf("data: No metadata found for transaction ID %s", args[0])
	}
	return rec, nil
}

// queryByIndex resolves every record whose indexed value equals the one
// argument into full records. The index matches by value prefix, so
// entries whose value merely begins with the argument are skipped.
func queryByIndex(stub chaincode.Stub, index string, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("data: index query expects one attribute")
	}
	value := string(args[0])
	page, err := stub.GetIndexPage(index, value, 0, "")
	if err != nil {
		return nil, err
	}
	out := make([]json.RawMessage, 0, len(page.Entries))
	for _, e := range page.Entries {
		if e.Value != value {
			continue
		}
		rec, err := stub.GetState(e.Key)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			out = append(out, rec)
		}
	}
	return json.Marshal(out)
}

// querySelector runs a CouchDB-style rich query over the data namespace.
func querySelector(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("data: querySelector expects selector JSON")
	}
	var sel statedb.Selector
	if err := json.Unmarshal(args[0], &sel); err != nil {
		return nil, fmt.Errorf("data: bad selector: %w", err)
	}
	kvs, err := stub.GetQueryResult(sel)
	if err != nil {
		return nil, err
	}
	out := make([]json.RawMessage, 0, len(kvs))
	for _, kv := range kvs {
		if len(kv.Key) > len(recKeyPrefix) && kv.Key[:len(recKeyPrefix)] == recKeyPrefix {
			out = append(out, append(json.RawMessage(nil), kv.Value...))
		}
	}
	return json.Marshal(out)
}

// RecordPage is one page of a paged index query: the matching records in
// (indexed value, key) order and the token resuming the next page.
type RecordPage struct {
	Records []json.RawMessage `json:"records"`
	// Next is empty when the page exhausted the index.
	Next string `json:"next,omitempty"`
}

// queryPage resolves one page of a statedb secondary index into full
// records: args are (index, value, limitStr, token). index is one of
// IndexLabel/IndexSource/IndexCamera/IndexSubmitted; value narrows by
// indexed-value prefix (empty pages the whole index, which for the
// submitted index yields records in time order); limit bounds the page
// (default 100); token resumes where the previous page stopped.
func queryPage(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 4 {
		return nil, fmt.Errorf("data: queryPage expects index, value, limit and token")
	}
	index, value, token := string(args[0]), string(args[1]), string(args[3])
	limit := 100
	if s := string(args[2]); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("data: queryPage limit %q must be a positive integer", s)
		}
		limit = n
	}
	page, err := stub.GetIndexPage(index, value, limit, token)
	if err != nil {
		return nil, err
	}
	out := RecordPage{Records: make([]json.RawMessage, 0, len(page.Entries)), Next: page.Next}
	for _, e := range page.Entries {
		rec, err := stub.GetState(e.Key)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			out.Records = append(out.Records, rec)
		}
	}
	return json.Marshal(out)
}

// getProvenance walks a record's per-source chain back to its origin,
// returning records newest-first.
func getProvenance(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("data: getProvenance expects txId")
	}
	var chain []json.RawMessage
	txID := string(args[0])
	for txID != "" {
		raw, err := stub.GetState(recKeyPrefix + txID)
		if err != nil {
			return nil, err
		}
		if raw == nil {
			return nil, fmt.Errorf("data: provenance chain broken at %s", txID)
		}
		chain = append(chain, append(json.RawMessage(nil), raw...))
		var rec DataRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, err
		}
		txID = rec.PrevTxID
	}
	return json.Marshal(chain)
}

// getHistory returns the committed update history of a record key.
func getHistory(stub chaincode.Stub, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("data: getHistory expects txId")
	}
	hist, err := stub.GetHistoryForKey(recKeyPrefix + string(args[0]))
	if err != nil {
		return nil, err
	}
	return json.Marshal(hist)
}

func countRecords(stub chaincode.Stub) ([]byte, error) {
	kvs, err := stub.GetStateByRange(recKeyPrefix, recKeyPrefix+"\xff")
	if err != nil {
		return nil, err
	}
	return []byte(strconv.Itoa(len(kvs))), nil
}

// All returns every deployed framework chaincode, in deployment order.
func All() []chaincode.Chaincode {
	return []chaincode.Chaincode{Admin{}, Users{}, Trust{}, Validation{}, Data{}}
}
