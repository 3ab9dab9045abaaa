package query_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"socialchain/internal/core"
	"socialchain/internal/dataset"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/ipfs"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
	"socialchain/internal/query"
)

// queryFixture spins up a framework with a handful of stored records.
type queryFixture struct {
	fw     *core.Framework
	client *core.Client
	txIDs  []string
	frames []*detect.Frame
	labels []string
}

func newQueryFixture(t *testing.T, n int) *queryFixture {
	t.Helper()
	fw, err := core.New(core.Config{
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
	cam, err := msp.NewSigner("city", "qcam", msp.RoleTrustedSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.RegisterSource(cam.Identity, true); err != nil {
		t.Fatal(err)
	}
	client := fw.Client(cam, 0)
	fx := &queryFixture{fw: fw, client: client}
	det := detect.NewDetector(500)
	corpus := dataset.Generate(dataset.Config{Seed: 500, NumVideos: 1, FramesPerVideo: n, NumDroneFlights: 1, FramesPerFlight: 1, MeanFrameKB: 4})
	for i := 0; i < n; i++ {
		frame := &corpus.Static[0].Frames[i]
		meta, _ := det.ExtractMetadata(frame)
		receipt, err := client.StoreFrame(frame, meta)
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		fx.txIDs = append(fx.txIDs, receipt.TxID)
		fx.frames = append(fx.frames, frame)
		fx.labels = append(fx.labels, meta.PrimaryLabel())
	}
	return fx
}

func TestExecuteByTxIDWithPayload(t *testing.T) {
	fx := newQueryFixture(t, 2)
	res, err := fx.client.Query().Execute(query.Request{Kind: query.ByTxID, Value: fx.txIDs[0], FetchPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("payload not verified")
	}
	if !bytes.Equal(res.Payload, fx.frames[0].Data) {
		t.Fatal("payload mismatch")
	}
	if res.Timing.Blockchain <= 0 || res.Timing.IPFS <= 0 {
		t.Fatalf("timing not recorded: %+v", res.Timing)
	}
	if res.Timing.Total() < res.Timing.Blockchain {
		t.Fatal("total < component")
	}
}

func TestExecuteMetadataOnly(t *testing.T) {
	fx := newQueryFixture(t, 1)
	res, err := fx.client.Query().Execute(query.Request{Kind: query.ByTxID, Value: fx.txIDs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Payload) != 0 {
		t.Fatal("metadata-only query fetched payload")
	}
	if len(res.Records) != 1 || res.Records[0].TxID != fx.txIDs[0] {
		t.Fatalf("records = %+v", res.Records)
	}
	if res.Timing.IPFS != 0 {
		t.Fatal("metadata-only query hit IPFS")
	}
}

func TestExecuteByLabel(t *testing.T) {
	fx := newQueryFixture(t, 3)
	res, err := fx.client.Query().Execute(query.Request{Kind: query.ByLabel, Value: fx.labels[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("label query empty")
	}
	for _, rec := range res.Records {
		var meta detect.MetadataRecord
		if err := json.Unmarshal(rec.Metadata, &meta); err != nil {
			t.Fatal(err)
		}
		if meta.PrimaryLabel() != fx.labels[0] {
			t.Fatalf("record %s label %q", rec.TxID, meta.PrimaryLabel())
		}
	}
}

func TestExecuteProvenance(t *testing.T) {
	fx := newQueryFixture(t, 3)
	res, err := fx.client.Query().Execute(query.Request{Kind: query.ProvenanceOf, Value: fx.txIDs[2]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("chain = %d", len(res.Records))
	}
}

func TestExecuteSelector(t *testing.T) {
	fx := newQueryFixture(t, 2)
	res, err := fx.client.Query().Execute(query.Request{
		Kind:     query.BySelector,
		Selector: map[string]any{"source": fx.client.Identity().ID()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("selector = %d records", len(res.Records))
	}
}

func TestUnknownTxID(t *testing.T) {
	fx := newQueryFixture(t, 1)
	if _, err := fx.client.Query().Data("no-such-tx"); err == nil {
		t.Fatal("unknown tx returned data")
	}
}

func TestTamperedPayloadDetected(t *testing.T) {
	fx := newQueryFixture(t, 1)
	// Read through a node of a fresh cluster: the on-chain CID points at
	// content no node it can ask holds.
	empty, err := ipfs.NewCluster(ipfs.ClusterConfig{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if _, err := query.NewEngine(fx.client.Gateway(), empty.Node(0)).Data(fx.txIDs[0]); err == nil {
		t.Fatal("retrieval succeeded with destroyed content")
	}
}

func TestUnknownRequestKind(t *testing.T) {
	fx := newQueryFixture(t, 1)
	if _, err := fx.client.Query().Execute(query.Request{Kind: query.Kind(99)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
