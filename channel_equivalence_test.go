// Randomized equivalence between channel counts: a ledger sharded across
// N channels must hold exactly the same canonical per-record state, the
// same secondary-index contents and the same per-source provenance chains
// and trust state as the single-channel deployment, once the per-channel
// views are merged routing-aware (records and index entries concatenated
// across channels; provenance and trust read from each source's home
// channel). The cross-channel query engine must also return the same
// record set through cursor pagination and point lookups regardless of
// how many channels hold it.
package socialchain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/core"
	"socialchain/internal/fabric"
	"socialchain/internal/ingest"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
	"socialchain/internal/query"
	"socialchain/internal/storage"
)

// mergedCanonicalRecords reads every data record from peer 0 of every
// channel and strips the nondeterministic fields — the routing-aware
// counterpart of canonicalRecords.
func mergedCanonicalRecords(t *testing.T, fw *core.Framework) []contracts.DataRecord {
	t.Helper()
	var out []contracts.DataRecord
	for _, ch := range fw.Net.Channels() {
		kvs := ch.Peer(0).State().GetStateByPrefix(contracts.DataCC, "rec/")
		for _, kv := range kvs {
			var rec contracts.DataRecord
			if err := json.Unmarshal(kv.Value, &rec); err != nil {
				t.Fatalf("decode record %s on %s: %v", kv.Key, ch.Name(), err)
			}
			rec.TxID, rec.PrevTxID, rec.Seq = "", "", 0
			rec.Submitted = time.Time{}
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CID < out[j].CID })
	return out
}

// mergedCanonicalIndex maps every entry of a statedb secondary index on
// every channel to (indexed value, CID), sorted.
func mergedCanonicalIndex(t *testing.T, fw *core.Framework, index string) []string {
	t.Helper()
	var out []string
	for _, ch := range fw.Net.Channels() {
		db := ch.Peer(0).State()
		token := ""
		for {
			page, err := db.IterIndex(index, "", 200, 0, token)
			if err != nil {
				t.Fatalf("IterIndex %s on %s: %v", index, ch.Name(), err)
			}
			for _, e := range page.Entries {
				vv, ok := db.GetState(contracts.DataCC, e.Key)
				if !ok {
					t.Fatalf("index %s entry %q on %s points at missing key %q", index, e.Value, ch.Name(), e.Key)
				}
				var rec contracts.DataRecord
				if err := json.Unmarshal(vv.Value, &rec); err != nil {
					t.Fatalf("decode indexed record: %v", err)
				}
				out = append(out, e.Value+"\x00"+rec.CID)
			}
			if page.Next == "" {
				break
			}
			token = page.Next
		}
	}
	sort.Strings(out)
	return out
}

// checkProvenanceChainOn is checkProvenanceChain against a specific
// channel — the source's home channel on sharded deployments.
func checkProvenanceChainOn(t *testing.T, ch *fabric.Channel, gw *fabric.Gateway, source string, want int) {
	t.Helper()
	db := ch.Peer(0).State()
	headRaw, ok := db.GetState(contracts.DataCC, "head/"+source)
	if !ok {
		t.Fatalf("no provenance head for %s on %s", source, ch.Name())
	}
	var head struct {
		TxID string `json:"tx_id"`
		Seq  int    `json:"seq"`
	}
	if err := json.Unmarshal(headRaw.Value, &head); err != nil {
		t.Fatal(err)
	}
	if head.Seq != want {
		t.Fatalf("head seq for %s = %d, want %d", source, head.Seq, want)
	}
	raw, err := gw.Evaluate(contracts.DataCC, "getProvenance", []byte(head.TxID))
	if err != nil {
		t.Fatalf("getProvenance: %v", err)
	}
	var chain []contracts.DataRecord
	if err := json.Unmarshal(raw, &chain); err != nil {
		t.Fatal(err)
	}
	if len(chain) != want {
		t.Fatalf("provenance chain for %s length %d, want %d", source, len(chain), want)
	}
	for i, rec := range chain {
		if rec.Seq != want-i {
			t.Fatalf("chain position %d has seq %d, want %d", i, rec.Seq, want-i)
		}
	}
}

// TestIntegrationChannelEquivalence is the randomized multi-channel
// equivalence gate: the same multi-source workload ingested into a
// 1-channel and a 4-channel deployment must converge to identical
// canonical records, identical merged secondary indexes, identical
// per-source provenance chains and trust state, and the cross-channel
// query engine must page out the same record set either way.
func TestIntegrationChannelEquivalence(t *testing.T) {
	seed := equivalenceSeed(t)
	t.Logf("channel equivalence seed %d (pin with SOCIALCHAIN_EQUIV_SEED)", seed)
	const nSources = 3
	const perSource = 8
	const total = nSources * perSource

	// One shared frame pool, sliced per source so both runs ingest the
	// exact same payloads from the same identities.
	frames, metas := equivFrames(t, seed, total)

	type runResult struct {
		records []byte
		index   []byte
		history []byte
		paged   []string
		trust   []byte
	}
	run := func(t *testing.T, nch int, transport string) runResult {
		fw, err := core.New(core.Config{
			Fabric: fabric.Config{
				NumPeers: 4,
				Cutter:   ordering.CutterConfig{MaxMessages: 2, BatchTimeout: 2 * time.Millisecond},
			},
			NumChannels:   nch,
			IPFSNodes:     2,
			StorageEngine: storage.EngineSingle,
			Transport:     transport,
		})
		if err != nil {
			t.Fatalf("core.New(%d channels): %v", nch, err)
		}
		t.Cleanup(fw.Close)

		cams := make([]*msp.Signer, nSources)
		clients := make([]*core.Client, nSources)
		for s := 0; s < nSources; s++ {
			cam, err := msp.NewSigner("city", fmt.Sprintf("chan-equiv-cam-%d", s), msp.RoleTrustedSource)
			if err != nil {
				t.Fatal(err)
			}
			if err := fw.RegisterSource(cam.Identity, true); err != nil {
				t.Fatal(err)
			}
			cams[s] = cam
			clients[s] = fw.Client(cam, s%2)
		}

		// All sources ingest concurrently through the pipelined path, so
		// commit interleaving is nondeterministic — exactly what the
		// canonicalisation must absorb.
		var wg sync.WaitGroup
		errs := make([]error, nSources)
		for s := 0; s < nSources; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				results, err := clients[s].StoreFrames(
					frames[s*perSource:(s+1)*perSource], metas[s*perSource:(s+1)*perSource],
					ingest.Config{Mode: ingest.ModePipelined, BatchSize: 3, AddWorkers: 2, MaxInFlight: 2})
				if err != nil {
					errs[s] = err
					return
				}
				for _, r := range results {
					if r.Err != nil {
						errs[s] = fmt.Errorf("source %d record %d: %w", s, r.Index, r.Err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}

		// Converge every channel's peers before inspecting peer 0.
		for _, ch := range fw.Net.Channels() {
			var tip uint64
			for _, p := range ch.Peers() {
				if h := p.Ledger().Height(); h > tip {
					tip = h
				}
			}
			if !ch.WaitHeight(tip, 10*time.Second) {
				t.Fatalf("%s peers did not converge to height %d", ch.Name(), tip)
			}
			if err := ch.Peer(0).Ledger().VerifyChain(); err != nil {
				t.Fatalf("chain verification on %s: %v", ch.Name(), err)
			}
		}

		recs := mergedCanonicalRecords(t, fw)
		if len(recs) != total {
			t.Fatalf("%d canonical records across channels, want %d", len(recs), total)
		}
		recJSON, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		idxJSON, err := json.Marshal(mergedCanonicalIndex(t, fw, contracts.IndexLabel))
		if err != nil {
			t.Fatal(err)
		}
		var hist []string
		for _, ch := range fw.Net.Channels() {
			hist = append(hist, canonicalHistory(t, ch.Peer(0))...)
		}
		if len(hist) != total {
			t.Fatalf("%d record keys have history across channels, want %d", len(hist), total)
		}
		sort.Strings(hist)
		histJSON, err := json.Marshal(hist)
		if err != nil {
			t.Fatal(err)
		}

		// Per-source provenance and trust live wholly on the home channel.
		for s, cam := range cams {
			home := fw.Net.ChannelFor(cam.Identity.ID())
			checkProvenanceChainOn(t, home, clients[s].Gateway(), cam.Identity.ID(), perSource)
			st, err := fw.TrustScore(cam.Identity.ID())
			if err != nil {
				t.Fatal(err)
			}
			if st.Accepted != perSource {
				t.Fatalf("source %d trust accepted = %d, want %d", s, st.Accepted, perSource)
			}
		}

		// Cross-channel cursor pagination must walk every record exactly
		// once, channel boundaries included (limit 5 forces several pages
		// per channel and pages that straddle the hand-off).
		qe := fw.QueryEngine(0)
		var paged []string
		cursor := ""
		for pages := 0; ; pages++ {
			if pages > total+fw.Net.NumChannels()+1 {
				t.Fatal("cursor pagination did not terminate")
			}
			page, err := qe.Page(contracts.IndexSubmitted, "", 5, cursor)
			if err != nil {
				t.Fatalf("Page: %v", err)
			}
			for _, rec := range page.Records {
				paged = append(paged, rec.CID)
			}
			if page.Next == "" {
				break
			}
			cursor = page.Next
		}
		if len(paged) != total {
			t.Fatalf("cursor pagination returned %d records, want %d", len(paged), total)
		}
		sort.Strings(paged)

		// Point lookups scatter to the owning channel; verify a metadata
		// fetch and a full verified retrieval for one record per source.
		for s := 0; s < nSources; s++ {
			rec := recs[(s*len(recs))/nSources]
			res, err := qe.Execute(query.Request{Kind: query.BySource, Value: cams[s].Identity.ID()})
			if err != nil {
				t.Fatalf("BySource %d: %v", s, err)
			}
			if len(res.Records) != perSource {
				t.Fatalf("BySource %d returned %d records, want %d", s, len(res.Records), perSource)
			}
			got, err := qe.Execute(query.Request{Kind: query.ByTxID, Value: res.Records[0].TxID, FetchPayload: true})
			if err != nil {
				t.Fatalf("ByTxID: %v", err)
			}
			if !got.Verified {
				t.Fatalf("retrieved payload for %s not verified", rec.CID)
			}
		}

		// The global trust view must see every source once, whichever
		// channel scored it.
		view, err := fw.RollupTrust()
		if err != nil {
			t.Fatal(err)
		}
		if view.Sources != nSources {
			t.Fatalf("trust roll-up saw %d sources, want %d", view.Sources, nSources)
		}
		type trustRow struct {
			ID       string `json:"id"`
			Accepted int    `json:"accepted"`
			Rejected int    `json:"rejected"`
		}
		rows := make([]trustRow, 0, len(view.States))
		for _, st := range view.States {
			rows = append(rows, trustRow{ID: st.SourceID, Accepted: st.Accepted, Rejected: st.Rejected})
		}
		trustJSON, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return runResult{records: recJSON, index: idxJSON, history: histJSON, paged: paged, trust: trustJSON}
	}

	// The tcp leg reruns the sharded deployment with all consensus and
	// fabric traffic over real localhost sockets: the wire must not
	// change a single canonical byte.
	var base runResult
	legs := []struct {
		name      string
		nch       int
		transport string
	}{
		{"1-channel", 1, ""},
		{"4-channel", 4, ""},
		{"4-channel-tcp", 4, "tcp"},
	}
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			got := run(t, leg.nch, leg.transport)
			if leg.name == "1-channel" {
				base = got
				return
			}
			if !bytes.Equal(base.records, got.records) {
				t.Fatalf("canonical records diverged between 1-channel and %s:\n1ch: %s\nnow: %s", leg.name, base.records, got.records)
			}
			if !bytes.Equal(base.index, got.index) {
				t.Fatalf("canonical label index diverged between 1-channel and %s:\n1ch: %s\nnow: %s", leg.name, base.index, got.index)
			}
			if !bytes.Equal(base.history, got.history) {
				t.Fatalf("canonical record history diverged between 1-channel and %s:\n1ch: %s\nnow: %s", leg.name, base.history, got.history)
			}
			if strings := fmt.Sprint(got.paged); fmt.Sprint(base.paged) != strings {
				t.Fatalf("paged record set diverged between 1-channel and %s", leg.name)
			}
			if !bytes.Equal(base.trust, got.trust) {
				t.Fatalf("trust roll-up diverged between 1-channel and %s:\n1ch: %s\nnow: %s", leg.name, base.trust, got.trust)
			}
		})
	}
}
