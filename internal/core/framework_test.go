package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/dataset"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
	"socialchain/internal/provenance"
	"socialchain/internal/query"
)

// newFramework builds a small, fast framework for tests.
func newFramework(t *testing.T) *Framework {
	t.Helper()
	fw, err := New(Config{
		Fabric: fabric.Config{
			NumPeers: 4,
			Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 5 * time.Millisecond},
		},
		IPFSNodes: 2,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(fw.Close)
	return fw
}

func newSource(t *testing.T, fw *Framework, org, name string, trusted bool) *msp.Signer {
	t.Helper()
	role := msp.RoleUntrustedSource
	if trusted {
		role = msp.RoleTrustedSource
	}
	s, err := msp.NewSigner(org, name, role)
	if err != nil {
		t.Fatalf("signer: %v", err)
	}
	if err := fw.RegisterSource(s.Identity, trusted); err != nil {
		t.Fatalf("register source: %v", err)
	}
	return s
}

// sampleFrame builds a deterministic frame + extracted metadata whose
// camera id matches the source.
func sampleFrame(t *testing.T, seed int64) (*detect.Frame, detect.MetadataRecord) {
	t.Helper()
	corpus := dataset.Generate(dataset.Config{Seed: seed, NumVideos: 1, FramesPerVideo: 1, NumDroneFlights: 1, FramesPerFlight: 1, MeanFrameKB: 8})
	frame := &corpus.Static[0].Frames[0]
	det := detect.NewDetector(seed)
	meta, _ := det.ExtractMetadata(frame)
	return frame, meta
}

func TestStoreRetrieveRoundTrip(t *testing.T) {
	fw := newFramework(t)
	cam := newSource(t, fw, "city", "cam-001", true)
	client := fw.Client(cam, 0)

	frame, meta := sampleFrame(t, 7)
	receipt, err := client.StoreFrame(frame, meta)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	if receipt.CID == "" || receipt.TxID == "" {
		t.Fatalf("incomplete receipt: %+v", receipt)
	}

	// Retrieve through a different IPFS node: the payload must cross the
	// bitswap wire and still verify.
	reader := fw.Client(cam, 1)
	res, err := reader.RetrieveData(receipt.TxID)
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	if !res.Verified {
		t.Fatal("payload failed verification")
	}
	if !bytes.Equal(res.Payload, frame.Data) {
		t.Fatal("retrieved payload differs from original")
	}
	var gotMeta detect.MetadataRecord
	if err := json.Unmarshal(res.Record.Metadata, &gotMeta); err != nil {
		t.Fatalf("metadata: %v", err)
	}
	if gotMeta.FrameID != frame.ID {
		t.Fatalf("metadata frame id %q != %q", gotMeta.FrameID, frame.ID)
	}
}

func TestUnregisteredSourceRejected(t *testing.T) {
	fw := newFramework(t)
	rogue, err := msp.NewSigner("nowhere", "rogue", msp.RoleUntrustedSource)
	if err != nil {
		t.Fatal(err)
	}
	client := fw.Client(rogue, 0)
	frame, meta := sampleFrame(t, 11)
	_, serr := client.StoreFrame(frame, meta)
	if serr == nil {
		t.Fatal("unregistered source must be rejected")
	}
	if !strings.Contains(serr.Error(), "validation failed") {
		t.Fatalf("unexpected error: %v", serr)
	}
}

func TestCorruptMetadataRejectedAndTrustDrops(t *testing.T) {
	fw := newFramework(t)
	crowd := newSource(t, fw, "crowd", "mobile-7", false)
	client := fw.Client(crowd, 0)

	before, err := fw.TrustScore(crowd.Identity.ID())
	if err != nil {
		t.Fatalf("trust before: %v", err)
	}

	frame, meta := sampleFrame(t, 13)
	meta.DataHash = strings.Repeat("0", 64) // hash mismatch with payload metadata
	meta.Detections[0].Confidence = 1.7     // schema violation too
	if _, err := client.StoreFrame(frame, meta); err == nil {
		t.Fatal("corrupt metadata must be rejected")
	}

	// The violation report must land on-chain and lower the score.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		after, err := fw.TrustScore(crowd.Identity.ID())
		if err == nil && after.Score < before.Score && after.Rejected == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	after, _ := fw.TrustScore(crowd.Identity.ID())
	t.Fatalf("trust score did not drop: before=%.3f after=%.3f rejected=%d", before.Score, after.Score, after.Rejected)
}

func TestTrustGateBlocksLowScoreSource(t *testing.T) {
	fw := newFramework(t)
	crowd := newSource(t, fw, "crowd", "troll-1", false)
	client := fw.Client(crowd, 0)

	// Drive the score below the acceptance gate with repeated violations.
	for i := 0; i < 8; i++ {
		frame, meta := sampleFrame(t, int64(100+i))
		meta.DataHash = strings.Repeat("f", 64)
		if _, err := client.StoreFrame(frame, meta); err == nil {
			t.Fatal("corrupt submission accepted")
		}
	}
	st, err := fw.TrustScore(crowd.Identity.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Score >= 0.3 {
		t.Fatalf("score %.3f should be below the 0.3 gate after 8 violations", st.Score)
	}
	// Now even a well-formed submission must be rejected by the gate.
	frame, meta := sampleFrame(t, 999)
	if _, err := client.StoreFrame(frame, meta); err == nil {
		t.Fatal("low-trust source must be gated")
	}
}

func TestHonestUntrustedSourceGainsTrust(t *testing.T) {
	fw := newFramework(t)
	crowd := newSource(t, fw, "crowd", "citizen-1", false)
	client := fw.Client(crowd, 0)

	for i := 0; i < 5; i++ {
		frame, meta := sampleFrame(t, int64(200+i))
		if _, err := client.StoreFrame(frame, meta); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	st, err := fw.TrustScore(crowd.Identity.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 5 || st.Rejected != 0 {
		t.Fatalf("accepted=%d rejected=%d", st.Accepted, st.Rejected)
	}
	if st.Score <= 0.5 {
		t.Fatalf("score %.3f should exceed the 0.5 initial value after 5 valid submissions", st.Score)
	}
}

func TestProvenanceChain(t *testing.T) {
	fw := newFramework(t)
	cam := newSource(t, fw, "city", "cam-002", true)
	client := fw.Client(cam, 0)

	var lastTx string
	const n = 4
	for i := 0; i < n; i++ {
		frame, meta := sampleFrame(t, int64(300+i))
		receipt, err := client.StoreFrame(frame, meta)
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		lastTx = receipt.TxID
	}
	chain, err := client.Query().Provenance(lastTx)
	if err != nil {
		t.Fatalf("provenance: %v", err)
	}
	if len(chain) != n {
		t.Fatalf("chain length %d, want %d", len(chain), n)
	}
	if err := provenance.VerifyChain(chain); err != nil {
		t.Fatalf("verify chain: %v", err)
	}
	// Ledger inclusion proof for the newest record (wait for peer 0 to
	// catch up with the commit-notifying peer).
	deadline := time.Now().Add(5 * time.Second)
	for !fw.Net.ChannelAt(0).Peer(0).Ledger().HasTx(lastTx) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := provenance.VerifyInclusion(fw.Net.ChannelAt(0).Peer(0).Ledger(), lastTx); err != nil {
		t.Fatalf("inclusion: %v", err)
	}
}

func TestQueryByLabelAndSelector(t *testing.T) {
	fw := newFramework(t)
	cam := newSource(t, fw, "city", "cam-003", true)
	client := fw.Client(cam, 0)

	labels := make(map[string]bool)
	const n = 5
	for i := 0; i < n; i++ {
		frame, meta := sampleFrame(t, int64(400+i))
		if _, err := client.StoreFrame(frame, meta); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		labels[meta.PrimaryLabel()] = true
	}
	total := 0
	for label := range labels {
		res, err := client.Query().Execute(query.Request{Kind: query.ByLabel, Value: label})
		if err != nil {
			t.Fatalf("label query %q: %v", label, err)
		}
		total += len(res.Records)
		for _, rec := range res.Records {
			var meta detect.MetadataRecord
			if err := json.Unmarshal(rec.Metadata, &meta); err != nil {
				t.Fatal(err)
			}
			if meta.PrimaryLabel() != label {
				t.Fatalf("record %s label %q != %q", rec.TxID, meta.PrimaryLabel(), label)
			}
		}
	}
	if total != n {
		t.Fatalf("label queries cover %d records, want %d", total, n)
	}

	// Selector: every record from this source.
	res, err := client.Query().Execute(query.Request{
		Kind:     query.BySelector,
		Selector: map[string]any{"source": cam.Identity.ID()},
	})
	if err != nil {
		t.Fatalf("selector query: %v", err)
	}
	if len(res.Records) != n {
		t.Fatalf("selector matched %d, want %d", len(res.Records), n)
	}
	// Source index agrees.
	bySource, err := client.Query().Execute(query.Request{Kind: query.BySource, Value: cam.Identity.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if len(bySource.Records) != n {
		t.Fatalf("source index matched %d, want %d", len(bySource.Records), n)
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	fw := newFramework(t)
	cam := newSource(t, fw, "city", "cam-004", true)
	if err := fw.RegisterSource(cam.Identity, true); err == nil {
		t.Fatal("duplicate registration must fail")
	}
}

func TestAdminOnlyRegistration(t *testing.T) {
	fw := newFramework(t)
	mallory, err := msp.NewSigner("crowd", "mallory", msp.RoleUntrustedSource)
	if err != nil {
		t.Fatal(err)
	}
	gw := fw.Net.ChannelAt(0).Gateway(mallory)
	rec, _ := json.Marshal(contracts.UserRecord{UserID: "crowd/mallory", Role: "trusted-source", PubKey: mallory.Identity.PubKey})
	if _, err := gw.Submit(contracts.UsersCC, "registerUser", rec); err == nil {
		t.Fatal("non-admin registration must fail at endorsement")
	}
}

func TestLedgerRecordsEverything(t *testing.T) {
	fw := newFramework(t)
	cam := newSource(t, fw, "city", "cam-005", true)
	client := fw.Client(cam, 0)
	frame, meta := sampleFrame(t, 500)
	if _, err := client.StoreFrame(frame, meta); err != nil {
		t.Fatal(err)
	}
	// enrollAdmin + initParams + registerUser + addData = 4 valid txs.
	// Peer 0 may trail the commit-notifying peer briefly, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for fw.LedgerStats().ValidTxs < 4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if stats := fw.LedgerStats(); stats.ValidTxs < 4 {
		t.Fatalf("expected >=4 valid txs, got %d", stats.ValidTxs)
	}
	if err := fw.Net.ChannelAt(0).Peer(0).Ledger().VerifyChain(); err != nil {
		t.Fatalf("chain verify: %v", err)
	}
}

// TestArgHashesMatchStoredRecord: the envelope keeps a hash per argument
// and the record keeps the argument. For what this framework submits —
// the CID string and json.Marshal's compact form of the metadata — an
// auditor can check one against the other. (A client that submitted
// metadata with other spacing would be stored compacted, json.RawMessage
// being re-marshalled, and its hash would only match its own bytes.)
func TestArgHashesMatchStoredRecord(t *testing.T) {
	fw := newFramework(t)
	cam := newSource(t, fw, "city", "cam-hash", true)
	frame, meta := sampleFrame(t, 11)
	receipt, err := fw.Client(cam, 0).StoreFrame(frame, meta)
	if err != nil {
		t.Fatal(err)
	}
	// The receipt is the first peer's commit; wait for the one that is read.
	ch := fw.Net.ChannelAt(0)
	if !ch.WaitHeight(receipt.BlockNum+1, 5*time.Second) {
		t.Fatalf("peers did not reach block %d", receipt.BlockNum)
	}
	p := ch.Peer(0)
	tx, _, _, err := p.Ledger().GetTx(receipt.TxID)
	if err != nil {
		t.Fatal(err)
	}
	vv, ok := p.State().GetState(contracts.DataCC, "rec/"+receipt.TxID)
	if !ok {
		t.Fatal("record not in state")
	}
	var rec contracts.DataRecord
	if err := json.Unmarshal(vv.Value, &rec); err != nil {
		t.Fatal(err)
	}
	want := ledger.HashArgs([][]byte{[]byte(rec.CID), rec.Metadata})
	if len(tx.Payload.ArgHashes) != 2 || tx.Payload.ArgHashes[0] != want[0] || tx.Payload.ArgHashes[1] != want[1] {
		t.Fatalf("argument hashes %v do not match the stored CID and metadata %v", tx.Payload.ArgHashes, want)
	}
}
