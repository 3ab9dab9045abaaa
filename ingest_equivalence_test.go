// Randomized equivalence between the write paths: the pipelined, batched
// ingest subsystem must produce the same canonical ledger state and the
// same statedb secondary indexes as the serial one-record-at-a-time
// StoreData loop, across both storage engines. Transaction IDs, commit
// timestamps and provenance sequence assignments are nondeterministic by
// construction (random nonces; batches may commit out of submit order),
// so records are canonicalised — TxID/PrevTxID/Submitted/Seq cleared,
// sorted by CID — before the byte comparison, and the provenance chain
// and per-record index membership are checked structurally per run.
package socialchain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/core"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/ingest"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
	"socialchain/internal/sim"
	"socialchain/internal/statedb"
	"socialchain/internal/storage"
)

// equivalenceSeed is time-randomized per run (logged for reproduction);
// set SOCIALCHAIN_EQUIV_SEED to pin it.
func equivalenceSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("SOCIALCHAIN_EQUIV_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SOCIALCHAIN_EQUIV_SEED %q: %v", s, err)
		}
		return v
	}
	return time.Now().UnixNano()
}

func newEquivFramework(t *testing.T, engine storage.Engine, transport string) (*core.Framework, *core.Client, *msp.Signer) {
	t.Helper()
	// The persist engine runs as a fully durable deployment over a fresh
	// scratch directory, so the cross-engine comparison also proves the
	// WAL-backed write path changes nothing observable.
	dataDir := ""
	if engine == storage.EnginePersist {
		dataDir = t.TempDir()
	}
	fw, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers: 4,
			Cutter:   ordering.CutterConfig{MaxMessages: 2, BatchTimeout: 2 * time.Millisecond},
		},
		IPFSNodes:     2,
		StorageEngine: engine,
		DataDir:       dataDir,
		Transport:     transport,
	})
	if err != nil {
		t.Fatalf("core.New(%s): %v", engine, err)
	}
	t.Cleanup(fw.Close)
	cam, err := msp.NewSigner("city", "equiv-cam", msp.RoleTrustedSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.RegisterSource(cam.Identity, true); err != nil {
		t.Fatal(err)
	}
	return fw, fw.Client(cam, 0), cam
}

// equivFrames generates n random-sized frames (and their metadata) from
// one seed, shared verbatim by every run under comparison.
func equivFrames(t *testing.T, seed int64, n int) ([]*detect.Frame, []detect.MetadataRecord) {
	t.Helper()
	rng := sim.NewRNG(seed)
	r := rand.New(rand.NewSource(seed))
	det := detect.NewDetector(seed)
	now := time.Now()
	frames := make([]*detect.Frame, n)
	metas := make([]detect.MetadataRecord, n)
	for i := range frames {
		frames[i] = &detect.Frame{
			ID:         detect.FrameIDFor(fmt.Sprintf("equiv-%d", i), i),
			VideoID:    fmt.Sprintf("equiv-%d", i),
			CameraID:   fmt.Sprintf("equiv-cam-%d", r.Intn(3)),
			Index:      i,
			Platform:   detect.PlatformStatic,
			Encoding:   detect.EncodingJPEG,
			Width:      1280,
			Height:     720,
			Data:       rng.Bytes(512 + r.Intn(4096)),
			Timestamp:  now.Add(time.Duration(i) * time.Second),
			Location:   detect.GeoPoint{Latitude: 12.97, Longitude: 77.59},
			LightLevel: 1,
		}
		metas[i], _ = det.ExtractMetadata(frames[i])
	}
	return frames, metas
}

// canonicalRecords reads every on-chain data record from peer 0's world
// state and strips the nondeterministic fields.
func canonicalRecords(t *testing.T, fw *core.Framework) []contracts.DataRecord {
	t.Helper()
	kvs := fw.Net.ChannelAt(0).Peer(0).State().GetStateRange(contracts.DataCC, "rec/", "rec0") // '0' follows '/'
	out := make([]contracts.DataRecord, 0, len(kvs))
	for _, kv := range kvs {
		out = append(out, canonicalRecord(t, kv.Value))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CID < out[j].CID })
	return out
}

// canonicalRecord strips a stored record's nondeterministic fields.
func canonicalRecord(t *testing.T, value []byte) contracts.DataRecord {
	t.Helper()
	var rec contracts.DataRecord
	if err := json.Unmarshal(value, &rec); err != nil {
		t.Fatalf("decode record: %v", err)
	}
	rec.TxID, rec.PrevTxID, rec.Seq = "", "", 0
	rec.Submitted = time.Time{}
	return rec
}

// canonicalIndex maps every entry of a statedb secondary index to
// (indexed value, CID of the record the entry points at), sorted — the
// record-ID-free view of the index.
func canonicalIndex(t *testing.T, fw *core.Framework, index string) []string {
	t.Helper()
	db := fw.Net.ChannelAt(0).Peer(0).State()
	var out []string
	token := ""
	for {
		page, err := db.IterIndex(index, "", 200, 0, token)
		if err != nil {
			t.Fatalf("IterIndex %s: %v", index, err)
		}
		for _, e := range page.Entries {
			vv, ok := db.GetState(contracts.DataCC, e.Key)
			if !ok {
				t.Fatalf("index %s entry %q points at missing key %q", index, e.Value, e.Key)
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
	sort.Strings(out)
	return out
}

// checkProvenanceChain walks the source's head chain and checks it visits
// every record exactly once with contiguous sequence numbers.
func checkProvenanceChain(t *testing.T, fw *core.Framework, gw *fabric.Gateway, source string, want int) {
	t.Helper()
	db := fw.Net.ChannelAt(0).Peer(0).State()
	headRaw, ok := db.GetState(contracts.DataCC, "head/"+source)
	if !ok {
		t.Fatalf("no provenance head for %s", source)
	}
	var head struct {
		TxID string `json:"tx_id"`
		Seq  int    `json:"seq"`
	}
	if err := json.Unmarshal(headRaw.Value, &head); err != nil {
		t.Fatal(err)
	}
	if head.Seq != want {
		t.Fatalf("head seq = %d, want %d", head.Seq, want)
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
		t.Fatalf("provenance chain length %d, want %d", len(chain), want)
	}
	for i, rec := range chain {
		if rec.Seq != want-i {
			t.Fatalf("chain position %d has seq %d, want %d", i, rec.Seq, want-i)
		}
	}
}

// TestIntegrationIngestEquivalence is the randomized serial-vs-pipelined
// equivalence gate, run under both storage engines (the persist legs as a
// durable deployment); a tcp mode (single engine only) reruns the
// pipelined workload with every consensus and fabric message crossing
// real localhost sockets. All five runs must agree on canonical state.
func TestIntegrationIngestEquivalence(t *testing.T) {
	seed := equivalenceSeed(t)
	t.Logf("equivalence seed %d (pin with SOCIALCHAIN_EQUIV_SEED)", seed)
	const n = 23
	frames, metas := equivFrames(t, seed, n)

	var canonical [][]byte
	var indexCanon []string
	for _, engine := range []storage.Engine{storage.EngineSingle, storage.EnginePersist} {
		modes := []string{"serial-loop", "pipelined"}
		if engine == storage.EngineSingle {
			modes = append(modes, "pipelined-tcp")
		}
		for _, mode := range modes {
			t.Run(string(engine)+"/"+mode, func(t *testing.T) {
				kind := "inproc"
				if mode == "pipelined-tcp" {
					kind = "tcp"
				}
				fw, client, cam := newEquivFramework(t, engine, kind)
				if mode == "serial-loop" {
					for i, f := range frames {
						if _, err := client.StoreFrame(f, metas[i]); err != nil {
							t.Fatalf("serial store %d: %v", i, err)
						}
					}
				} else {
					results, err := client.StoreFrames(frames, metas, ingest.Config{
						Mode:        ingest.ModePipelined,
						BatchSize:   5,
						AddWorkers:  4,
						MaxInFlight: 2,
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range results {
						if r.Err != nil {
							t.Fatalf("pipelined store %d: %v", r.Index, r.Err)
						}
					}
				}

				// Commits are confirmed on round-robin entry peers; let
				// peer 0 (whose state we inspect) catch up to the
				// freshest peer before reading.
				var tip uint64
				for _, p := range fw.Net.ChannelAt(0).Peers() {
					if h := p.Ledger().Height(); h > tip {
						tip = h
					}
				}
				if !fw.Net.ChannelAt(0).WaitHeight(tip, 10*time.Second) {
					t.Fatalf("peers did not converge to height %d", tip)
				}

				recs := canonicalRecords(t, fw)
				if len(recs) != n {
					t.Fatalf("%d canonical records, want %d", len(recs), n)
				}
				recJSON, err := json.Marshal(recs)
				if err != nil {
					t.Fatal(err)
				}
				idx := canonicalIndex(t, fw, contracts.IndexLabel)
				idxJSON, _ := json.Marshal(idx)
				canonical = append(canonical, recJSON)
				indexCanon = append(indexCanon, string(idxJSON))
				if len(canonical) > 1 {
					if !bytes.Equal(canonical[0], recJSON) {
						t.Fatalf("canonical state diverged from first run:\nfirst: %s\n  now: %s", canonical[0], recJSON)
					}
					if indexCanon[0] != string(idxJSON) {
						t.Fatalf("canonical label index diverged:\nfirst: %s\n  now: %s", indexCanon[0], idxJSON)
					}
				}

				checkProvenanceChain(t, fw, client.Gateway(), cam.Identity.ID(), n)

				// Index integrity within the run: the statedb index page
				// count per label must match a full selector scan.
				db := fw.Net.ChannelAt(0).Peer(0).State()
				labels := map[string]int{}
				for _, r := range recs {
					labels[r.Label]++
				}
				for label, count := range labels {
					kvs, err := db.ExecuteQuery(contracts.DataCC, statedb.Selector{"label": label})
					if err != nil {
						t.Fatal(err)
					}
					got := 0
					for _, kv := range kvs {
						if len(kv.Key) >= 4 && kv.Key[:4] == "rec/" {
							got++
						}
					}
					if got != count {
						t.Fatalf("label %q: indexed query found %d records, want %d", label, got, count)
					}
				}

				// Trust state must match the serial path: n accepted
				// observations.
				st, err := fw.TrustScore(cam.Identity.ID())
				if err != nil {
					t.Fatal(err)
				}
				if st.Accepted != n {
					t.Fatalf("trust accepted = %d, want %d", st.Accepted, n)
				}

				if err := fw.Net.ChannelAt(0).Peer(0).Ledger().VerifyChain(); err != nil {
					t.Fatalf("chain verification: %v", err)
				}
			})
		}
	}
}
