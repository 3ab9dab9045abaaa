// Integration tests exercising the full stack end to end: blockchain +
// IPFS + chaincodes + trust + query + explorer, under latency models and
// byzantine behaviour — the scenarios the paper's architecture must
// survive, beyond any single package's unit tests.
package socialchain

import (
	"strings"
	"testing"
	"time"

	"socialchain/internal/consensus"
	"socialchain/internal/core"
	"socialchain/internal/dataset"
	"socialchain/internal/detect"
	"socialchain/internal/explorer"
	"socialchain/internal/fabric"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
	"socialchain/internal/provenance"
	"socialchain/internal/query"
	"socialchain/internal/sim"
)

// newIntegrationFramework builds a framework with realistic knobs: LAN
// latency, batching > 1, and optionally byzantine validators.
func newIntegrationFramework(t *testing.T, peers int, behaviors map[int]consensus.Behavior) *core.Framework {
	t.Helper()
	rng := sim.NewRNG(99)
	fw, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers:         peers,
			Cutter:           ordering.CutterConfig{MaxMessages: 4, BatchTimeout: 10 * time.Millisecond},
			Latency:          sim.LANLatency(rng),
			Behaviors:        behaviors,
			ConsensusTimeout: time.Second,
		},
		IPFSNodes:   2,
		IPFSLatency: sim.LANLatency(rng.Fork()),
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(fw.Close)
	return fw
}

func registerSource(t *testing.T, fw *core.Framework, org, name string, trusted bool) *msp.Signer {
	t.Helper()
	role := msp.RoleUntrustedSource
	if trusted {
		role = msp.RoleTrustedSource
	}
	s, err := msp.NewSigner(org, name, role)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.RegisterSource(s.Identity, trusted); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return s
}

// TestIntegrationSmartCityScenario runs the paper's full story: a camera fleet and a
// drone ingest the corpus through the framework with a byzantine validator
// present; an analyst queries by label and verifies payloads; the explorer
// confirms chain health.
func TestIntegrationSmartCityScenario(t *testing.T) {
	fw := newIntegrationFramework(t, 4, map[int]consensus.Behavior{3: consensus.Silent{}})
	det := detect.NewDetector(42)
	corpus := dataset.Generate(dataset.Config{
		Seed: 42, NumVideos: 2, FramesPerVideo: 3,
		NumDroneFlights: 1, FramesPerFlight: 3, MeanFrameKB: 12,
	})

	var receipts []*core.StoreReceipt
	for i, video := range append(corpus.Static, corpus.Drone...) {
		src := registerSource(t, fw, "city", video.Camera.ID, true)
		client := fw.Client(src, i%2)
		for j := range video.Frames {
			frame := &video.Frames[j]
			meta, _ := det.ExtractMetadata(frame)
			receipt, err := client.StoreFrame(frame, meta)
			if err != nil {
				t.Fatalf("store %s: %v", frame.ID, err)
			}
			receipts = append(receipts, receipt)
		}
	}
	if len(receipts) != 9 {
		t.Fatalf("stored %d, want 9", len(receipts))
	}

	// Analyst: every stored record retrievable and verified via either
	// IPFS node.
	for i, receipt := range receipts {
		qe := fw.QueryEngine(i % 2)
		res, err := qe.Data(receipt.TxID)
		if err != nil {
			t.Fatalf("retrieve %s: %v", receipt.TxID, err)
		}
		if !res.Verified {
			t.Fatalf("record %s not verified", receipt.TxID)
		}
	}

	// Explorer: chain is healthy, data chaincode dominates activity.
	lgr := fw.Net.ChannelAt(0).Peer(0).Ledger()
	waitForHeight(t, fw, receipts[len(receipts)-1].BlockNum+1) // peer 0 may trail the receipt
	exp := explorer.New(lgr)
	if err := exp.VerifyIntegrity(); err != nil {
		t.Fatalf("explorer integrity: %v", err)
	}
	stats := exp.Stats()
	if stats.ByChaincode["data"] != 9 {
		t.Fatalf("explorer counts %d data txs, want 9", stats.ByChaincode["data"])
	}
	if stats.FlagBreakdown[ledger.Valid] < 9 {
		t.Fatalf("valid txs = %d", stats.FlagBreakdown[ledger.Valid])
	}

	// Every label query resolves to records whose metadata agrees.
	qe := fw.QueryEngine(0)
	seen := 0
	for _, label := range detect.VehicleLabels {
		res, err := qe.Execute(query.Request{Kind: query.ByLabel, Value: label})
		if err != nil {
			t.Fatalf("label %s: %v", label, err)
		}
		seen += len(res.Records)
	}
	if seen != 9 {
		t.Fatalf("label queries cover %d records, want 9", seen)
	}
}

// waitForHeight waits for all peers to converge on at least the given
// height (commits propagate asynchronously).
func waitForHeight(t *testing.T, fw *core.Framework, h uint64) {
	t.Helper()
	if !fw.Net.ChannelAt(0).WaitHeight(h, 10*time.Second) {
		t.Fatal("peers did not converge")
	}
}

// TestIntegrationProvenanceSurvivesByzantineValidator stores a chain of records with
// an equivocating validator present (evicted mid-run) and verifies the
// provenance chain and Merkle inclusion afterwards.
func TestIntegrationProvenanceSurvivesByzantineValidator(t *testing.T) {
	fw := newIntegrationFramework(t, 4, map[int]consensus.Behavior{
		0: &consensus.Equivocator{Half: map[string]bool{"peer1": true}},
	})
	cam := registerSource(t, fw, "city", "byz-cam", true)
	client := fw.Client(cam, 0)
	det := detect.NewDetector(88)
	corpus := dataset.Generate(dataset.Config{Seed: 88, NumVideos: 1, FramesPerVideo: 4, NumDroneFlights: 1, FramesPerFlight: 1, MeanFrameKB: 4})

	var last string
	for i := range corpus.Static[0].Frames {
		frame := &corpus.Static[0].Frames[i]
		meta, _ := det.ExtractMetadata(frame)
		receipt, err := client.StoreFrame(frame, meta)
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		last = receipt.TxID
	}
	chain, err := client.Query().Provenance(last)
	if err != nil {
		t.Fatalf("provenance: %v", err)
	}
	if err := provenance.VerifyChain(chain); err != nil {
		t.Fatal(err)
	}
	// A healthy peer's ledger proves inclusion.
	lgr := fw.Net.ChannelAt(0).Peer(1).Ledger()
	deadline := time.Now().Add(10 * time.Second)
	for !lgr.HasTx(last) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := provenance.VerifyInclusion(lgr, last); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationMixedTrustWorkload runs the socialchaind-style mixed workload and
// checks the aggregate outcome: trusted sources unaffected, dishonest
// crowd sources gated, ledger consistent.
func TestIntegrationMixedTrustWorkload(t *testing.T) {
	fw := newIntegrationFramework(t, 4, nil)
	det := detect.NewDetector(55)
	corpus := dataset.Generate(dataset.Config{Seed: 55, NumVideos: 1, FramesPerVideo: 20, NumDroneFlights: 1, FramesPerFlight: 1, MeanFrameKB: 4})
	frames := corpus.Static[0].Frames

	cam := registerSource(t, fw, "city", "mix-cam", true)
	honest := registerSource(t, fw, "crowd", "mix-honest", false)
	dishonest := registerSource(t, fw, "crowd", "mix-dishonest", false)
	camClient := fw.Client(cam, 0)
	honestClient := fw.Client(honest, 0)
	dishonestClient := fw.Client(dishonest, 1)

	for round := 0; round < 6; round++ {
		f := frames[round*3]
		m, _ := det.ExtractMetadata(&f)
		if _, err := camClient.StoreFrame(&f, m); err != nil {
			t.Fatalf("camera round %d: %v", round, err)
		}
		f2 := frames[round*3+1]
		m2, _ := det.ExtractMetadata(&f2)
		m2.CameraID = "honest-phone"
		if _, err := honestClient.StoreFrame(&f2, m2); err != nil {
			t.Fatalf("honest round %d: %v", round, err)
		}
		f3 := frames[round*3+2]
		m3, _ := det.ExtractMetadata(&f3)
		m3.CameraID = "dishonest-phone"
		m3.DataHash = strings.Repeat("b", 64)
		if _, err := dishonestClient.StoreFrame(&f3, m3); err == nil {
			t.Fatalf("dishonest round %d accepted", round)
		}
	}
	hs, err := fw.TrustScore(honest.Identity.ID())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := fw.TrustScore(dishonest.Identity.ID())
	if err != nil {
		t.Fatal(err)
	}
	if hs.Score <= 0.5 || hs.Rejected != 0 {
		t.Fatalf("honest state %+v", hs)
	}
	if ds.Score >= 0.3 || ds.Accepted != 0 {
		t.Fatalf("dishonest state %+v", ds)
	}
	if err := fw.Net.ChannelAt(0).Peer(0).Ledger().VerifyChain(); err != nil {
		t.Fatal(err)
	}
}
