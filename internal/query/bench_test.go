package query_test

import (
	"fmt"
	"testing"
	"time"

	"socialchain/internal/core"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
	"socialchain/internal/query"
	"socialchain/internal/sim"
)

// benchFixture stores n payloads and returns the framework plus tx ids.
func benchFixture(b *testing.B, n int) (*core.Framework, []string) {
	b.Helper()
	fw, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers: 4,
			Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
		},
		IPFSNodes: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	cam, err := msp.NewSigner("city", "bench-cam", msp.RoleTrustedSource)
	if err != nil {
		fw.Close()
		b.Fatal(err)
	}
	if err := fw.RegisterSource(cam.Identity, true); err != nil {
		fw.Close()
		b.Fatal(err)
	}
	client := fw.Client(cam, 0)
	det := detect.NewDetector(1)
	rng := sim.NewRNG(1)
	txIDs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		frame := &detect.Frame{
			ID:       detect.FrameIDFor(fmt.Sprintf("bench-%d", i), i),
			VideoID:  fmt.Sprintf("bench-%d", i),
			CameraID: "bench-cam",
			Index:    i,
			Platform: detect.PlatformStatic,
			Encoding: detect.EncodingJPEG,
			Width:    1280, Height: 720,
			Data:       rng.Bytes(8 * 1024),
			Timestamp:  time.Now(),
			LightLevel: 1,
		}
		meta, _ := det.ExtractMetadata(frame)
		receipt, err := client.StoreFrame(frame, meta)
		if err != nil {
			fw.Close()
			b.Fatal(err)
		}
		txIDs = append(txIDs, receipt.TxID)
	}
	return fw, txIDs
}

// BenchmarkGetMany compares serial and concurrent batch retrieval over a
// remote IPFS node; sub-runs are the worker-pool bound.
func BenchmarkGetMany(b *testing.B) {
	fw, txIDs := benchFixture(b, 8)
	defer fw.Close()
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := query.NewEngine(fw.AdminGateway(), fw.Cluster.Node(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items := eng.GetMany(txIDs, workers)
				for _, item := range items {
					if item.Err != nil {
						b.Fatal(item.Err)
					}
				}
			}
		})
	}
}
