package ingest_test

import (
	"errors"
	"fmt"
	"strings"
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
)

// newTestFramework builds a small zero-latency framework with one
// registered trusted camera client.
func newTestFramework(t *testing.T) (*core.Framework, *core.Client, *msp.Signer) {
	t.Helper()
	fw, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers: 4,
			Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
		},
		IPFSNodes: 2,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(fw.Close)
	cam, err := msp.NewSigner("city", "ingest-cam", msp.RoleTrustedSource)
	if err != nil {
		t.Fatalf("signer: %v", err)
	}
	if err := fw.RegisterSource(cam.Identity, true); err != nil {
		t.Fatalf("register: %v", err)
	}
	return fw, fw.Client(cam, 0), cam
}

func testRecords(t *testing.T, signer *msp.Signer, seed int64, n, size int) []ingest.Record {
	t.Helper()
	rng := sim.NewRNG(seed)
	det := detect.NewDetector(seed)
	out := make([]ingest.Record, n)
	for i := range out {
		f := &detect.Frame{
			ID:         detect.FrameIDFor(fmt.Sprintf("ingest-%d", i), i),
			VideoID:    fmt.Sprintf("ingest-%d", i),
			CameraID:   "ingest-cam",
			Index:      i,
			Platform:   detect.PlatformStatic,
			Encoding:   detect.EncodingJPEG,
			Width:      1280,
			Height:     720,
			Data:       rng.Bytes(size),
			Timestamp:  time.Now(),
			Location:   detect.GeoPoint{Latitude: 12.97, Longitude: 77.59},
			LightLevel: 1,
		}
		meta, _ := det.ExtractMetadata(f)
		out[i] = ingest.Record{Signed: msp.NewSignedMessage(signer, f.Data), Meta: meta}
	}
	return out
}

// TestIntegrationPipelineModes runs every pipeline mode end to end and
// checks all records commit, are retrievable and keep provenance order.
func TestIntegrationPipelineModes(t *testing.T) {
	for _, cfg := range []ingest.Config{
		{Mode: ingest.ModeSerial},
		{Mode: ingest.ModeBatched, BatchSize: 5},
		{Mode: ingest.ModePipelined, BatchSize: 5, AddWorkers: 4, MaxInFlight: 2},
	} {
		cfg := cfg
		t.Run(string(cfg.Mode), func(t *testing.T) {
			fw, client, cam := newTestFramework(t)
			const n = 12
			records := testRecords(t, cam, 7, n, 2048)
			results := client.Pipeline(cfg).Run(records)
			if len(results) != n {
				t.Fatalf("got %d results for %d records", len(results), n)
			}
			qe := fw.QueryEngine(1)
			for _, r := range results {
				if r.Err != nil {
					t.Fatalf("record %d: %v", r.Index, r.Err)
				}
				if r.RecordID == "" || r.CID == "" {
					t.Fatalf("record %d: empty id/cid: %+v", r.Index, r)
				}
				res, err := qe.Data(r.RecordID)
				if err != nil {
					t.Fatalf("retrieve %s: %v", r.RecordID, err)
				}
				if !res.Verified {
					t.Fatalf("retrieve %s: payload not verified", r.RecordID)
				}
			}
			// Provenance: the source's chain head links back through all
			// n records, whatever order the batches committed in.
			raw, err := client.Gateway().Evaluate(contracts.DataCC, "count")
			if err != nil {
				t.Fatalf("count: %v", err)
			}
			if string(raw) != fmt.Sprint(n) {
				t.Fatalf("on-chain record count = %s, want %d", raw, n)
			}
			st, err := fw.TrustScore(cam.Identity.ID())
			if err != nil {
				t.Fatalf("trust score: %v", err)
			}
			if st.Accepted != n {
				t.Fatalf("trust accepted = %d, want %d", st.Accepted, n)
			}
		})
	}
}

// TestIntegrationPipelineDefaultNeverConflicts: at the pipelined preset's
// default window one batch is in flight, so no batch is endorsed against
// the provenance head and trust state the batch ahead of it is about to
// replace: over 40 batches from one source nothing fails and nothing is
// re-endorsed.
func TestIntegrationPipelineDefaultNeverConflicts(t *testing.T) {
	_, client, cam := newTestFramework(t)
	const batches, size = 40, 2
	pipe := client.Pipeline(ingest.Config{BatchSize: size})
	if cfg := pipe.Config(); cfg.Mode != ingest.ModePipelined || cfg.MaxInFlight != 1 {
		t.Fatalf("default config %+v, want the pipelined preset with one batch in flight", cfg)
	}
	for _, r := range pipe.Run(testRecords(t, cam, 17, batches*size, 256)) {
		if r.Err != nil {
			t.Fatalf("record %d: %v", r.Index, r.Err)
		}
	}
	st := pipe.Stats()
	if st.Stored != batches*size || st.Failed != 0 || st.ConflictRetries != 0 || st.Batches < batches {
		t.Fatalf("stats %+v: want %d stored in at least %d batches, none failed or re-endorsed", st, batches*size, batches)
	}
}

// TestIntegrationPipelineRejectsInvalid checks client-side validation:
// hash mismatches and foreign signatures are rejected before IPFS.
func TestIntegrationPipelineRejectsInvalid(t *testing.T) {
	_, client, cam := newTestFramework(t)
	records := testRecords(t, cam, 11, 3, 1024)
	records[1].Meta.DataHash = strings.Repeat("0", 64)
	results := client.Pipeline(ingest.Config{Mode: ingest.ModeBatched, BatchSize: 3}).Run(records)
	if results[1].Err == nil || !errors.Is(results[1].Err, ingest.ErrValidation) {
		t.Fatalf("corrupt record error = %v, want ErrValidation", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("record %d should commit, got %v", i, results[i].Err)
		}
	}
}

// TestIntegrationPipelineBisectsPoisonedBatch checks that a record that
// passes client-side checks but fails chaincode validation sinks only
// itself, not its batch-mates.
func TestIntegrationPipelineBisectsPoisonedBatch(t *testing.T) {
	_, client, cam := newTestFramework(t)
	records := testRecords(t, cam, 13, 6, 1024)
	records[3].Meta.CameraID = "" // schema-invalid on-chain, invisible to client checks
	results := client.Pipeline(ingest.Config{Mode: ingest.ModeBatched, BatchSize: 6}).Run(records)
	for i, r := range results {
		if i == 3 {
			if r.Err == nil {
				t.Fatalf("poisoned record committed: %+v", r)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("record %d sunk by poisoned batch-mate: %v", i, r.Err)
		}
	}
}

// TestOrderingBackpressureSurfaces checks that a stopped network rejects
// ingest rather than hanging: results carry the typed ordering error.
func TestOrderingBackpressureSurfaces(t *testing.T) {
	fw, client, cam := newTestFramework(t)
	fw.Net.Stop()
	records := testRecords(t, cam, 17, 2, 512)
	results := client.Pipeline(ingest.Config{Mode: ingest.ModeSerial}).Run(records)
	for _, r := range results {
		if r.Err == nil || !errors.Is(r.Err, ordering.ErrStopped) {
			t.Fatalf("record %d error = %v, want ordering.ErrStopped", r.Index, r.Err)
		}
	}
}
