// Benchmarks regenerating the paper's evaluation (§IV). One benchmark per
// figure plus ablations, run with `go test -bench . -run '^$'`. The
// regression benchmark the repository's performance claims are made on is
// a separate program, `go run ./bench` (see BENCHMARK.json).
//
//	Figure 3 — detection confidence, static vs drone platforms
//	Figure 4 — metadata extraction time vs frame size
//	Figure 5 — IPFS storage time vs file size, with/without blockchain
//	Figure 6 — retrieval time vs file size, with/without blockchain
package socialchain

import (
	"fmt"
	"testing"
	"time"

	"socialchain/internal/consensus"
	"socialchain/internal/core"
	"socialchain/internal/dataset"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/ipfs"
	"socialchain/internal/metrics"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
	"socialchain/internal/query"
	"socialchain/internal/sim"
	"socialchain/internal/storage"
	"socialchain/internal/transport"
)

// benchFramework builds a small framework for storage benchmarks.
func benchFramework(b *testing.B, peers int, behaviors map[int]consensus.Behavior) (*core.Framework, *core.Client) {
	b.Helper()
	fw, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers:         peers,
			Cutter:           ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
			Behaviors:        behaviors,
			ConsensusTimeout: 500 * time.Millisecond,
		},
		IPFSNodes: 2,
	})
	if err != nil {
		b.Fatalf("core.New: %v", err)
	}
	b.Cleanup(fw.Close)
	cam, err := msp.NewSigner("city", "bench-cam", msp.RoleTrustedSource)
	if err != nil {
		b.Fatal(err)
	}
	if err := fw.RegisterSource(cam.Identity, true); err != nil {
		b.Fatal(err)
	}
	return fw, fw.Client(cam, 0)
}

// frameOfSize builds one frame with an exact payload size plus its
// extracted metadata.
func frameOfSize(rng *sim.RNG, det *detect.Detector, size int, idx int) (*detect.Frame, detect.MetadataRecord) {
	f := &detect.Frame{
		ID:         detect.FrameIDFor(fmt.Sprintf("bench-%d", idx), idx),
		VideoID:    fmt.Sprintf("bench-%d", idx),
		CameraID:   "bench-cam",
		Index:      idx,
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
	return f, meta
}

// BenchmarkFigure3_DetectionConfidence measures detection over the two
// platforms and reports the confidence mean and spread the paper plots.
func BenchmarkFigure3_DetectionConfidence(b *testing.B) {
	for _, platform := range []detect.Platform{detect.PlatformStatic, detect.PlatformDrone} {
		b.Run(platform.String(), func(b *testing.B) {
			cfg := dataset.Config{Seed: 3, NumVideos: 4, FramesPerVideo: 8, NumDroneFlights: 4, FramesPerFlight: 8, MeanFrameKB: 16}
			corpus := dataset.Generate(cfg)
			videos := corpus.Static
			if platform == detect.PlatformDrone {
				videos = corpus.Drone
			}
			det := detect.NewDetector(3)
			stats := metrics.NewStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := videos[i%len(videos)]
				f := &v.Frames[i%len(v.Frames)]
				for _, d := range det.Detect(f) {
					stats.Add(d.Confidence)
				}
			}
			b.StopTimer()
			b.ReportMetric(stats.Mean(), "conf-mean")
			b.ReportMetric(stats.Std(), "conf-std")
		})
	}
}

// BenchmarkFigure4_MetadataExtraction measures extraction latency across
// frame sizes (the scatter of Figure 4).
func BenchmarkFigure4_MetadataExtraction(b *testing.B) {
	sizes := []int{256, 512, 1024, 4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024}
	for _, size := range sizes {
		b.Run(fmt.Sprintf("size=%dB", size), func(b *testing.B) {
			rng := sim.NewRNG(4)
			det := detect.NewDetector(4)
			frames := make([]*detect.Frame, 8)
			for i := range frames {
				frames[i], _ = frameOfSize(rng, det, size, i)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = det.ExtractMetadata(frames[i%len(frames)])
			}
		})
	}
}

// BenchmarkFigure5_Storage measures storage time across file sizes with
// and without blockchain overhead: ipfs-only is a raw IPFS add; the
// with-blockchain series runs the full store pipeline (validation,
// IPFS add, metadata+CID committed through BFT).
func BenchmarkFigure5_Storage(b *testing.B) {
	sizes := []int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

	b.Run("ipfs-only", func(b *testing.B) {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("size=%dKB", size/1024), func(b *testing.B) {
				cluster, err := ipfs.NewCluster(ipfs.ClusterConfig{Nodes: 2})
				if err != nil {
					b.Fatal(err)
				}
				rng := sim.NewRNG(5)
				payloads := make([][]byte, 8)
				for i := range payloads {
					payloads[i] = rng.Bytes(size)
				}
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cluster.Node(0).Add(payloads[i%len(payloads)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})

	b.Run("with-blockchain", func(b *testing.B) {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("size=%dKB", size/1024), func(b *testing.B) {
				_, client := benchFramework(b, 4, nil)
				rng := sim.NewRNG(5)
				det := detect.NewDetector(5)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					frame, meta := frameOfSize(rng, det, size, i)
					b.StartTimer()
					if _, err := client.StoreFrame(frame, meta); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkFigure6_Retrieval measures retrieval across file sizes: the
// ipfs-only series fetches by CID from a cold second node; with-blockchain
// runs the full query-engine path (metadata from the chain, payload from
// IPFS, hash verification).
func BenchmarkFigure6_Retrieval(b *testing.B) {
	sizes := []int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

	b.Run("ipfs-only", func(b *testing.B) {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("size=%dKB", size/1024), func(b *testing.B) {
				cluster, err := ipfs.NewCluster(ipfs.ClusterConfig{Nodes: 2})
				if err != nil {
					b.Fatal(err)
				}
				rng := sim.NewRNG(6)
				root, err := cluster.Node(0).Add(rng.Bytes(size))
				if err != nil {
					b.Fatal(err)
				}
				// Warm the reader so iterations measure steady-state reads,
				// as the paper's repeated retrievals do.
				if _, err := cluster.Node(1).Get(root); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cluster.Node(1).Get(root); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})

	b.Run("with-blockchain", func(b *testing.B) {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("size=%dKB", size/1024), func(b *testing.B) {
				fw, client := benchFramework(b, 4, nil)
				rng := sim.NewRNG(6)
				det := detect.NewDetector(6)
				frame, meta := frameOfSize(rng, det, size, 0)
				receipt, err := client.StoreFrame(frame, meta)
				if err != nil {
					b.Fatal(err)
				}
				reader := fw.Client(fw.Admin, 1) // reads via the second IPFS node
				if _, err := reader.RetrieveData(receipt.TxID); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := reader.RetrieveData(receipt.TxID)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Verified {
						b.Fatal("payload failed verification")
					}
				}
			})
		}
	})
}

// BenchmarkBFTFaultTolerance measures end-to-end submit latency as the
// number of byzantine (silent) validators grows: within f the system keeps
// committing; the bench shows the latency cost of faults.
func BenchmarkBFTFaultTolerance(b *testing.B) {
	for _, byz := range []int{0, 1, 2} { // n=7 tolerates f=2
		b.Run(fmt.Sprintf("byzantine=%d", byz), func(b *testing.B) {
			behaviors := map[int]consensus.Behavior{}
			// Faulty validators are non-leader followers so every iteration
			// measures quorum assembly, not view changes.
			for i := 0; i < byz; i++ {
				behaviors[i+1] = consensus.Silent{}
			}
			_, client := benchFramework(b, 7, behaviors)
			rng := sim.NewRNG(7)
			det := detect.NewDetector(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				frame, meta := frameOfSize(rng, det, 4096, i)
				b.StartTimer()
				if _, err := client.StoreFrame(frame, meta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChunkSize ablates the IPFS chunk size against add+get cost.
func BenchmarkChunkSize(b *testing.B) {
	const payload = 2 << 20 // 2 MiB
	for _, chunkKB := range []int{32, 128, 256, 512} {
		b.Run(fmt.Sprintf("chunk=%dKB", chunkKB), func(b *testing.B) {
			cluster, err := ipfs.NewCluster(ipfs.ClusterConfig{
				Nodes:       2,
				NodeOptions: ipfs.Options{ChunkSize: chunkKB * 1024},
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := sim.NewRNG(8)
			data := rng.Bytes(payload)
			b.SetBytes(payload)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				root, err := cluster.Node(0).Add(data)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cluster.Node(1).Get(root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalabilityPeers sweeps the peer count, measuring full submit
// latency (endorsement fan-out + BFT quorum + commit).
func BenchmarkScalabilityPeers(b *testing.B) {
	for _, peers := range []int{4, 7, 10} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			_, client := benchFramework(b, peers, nil)
			rng := sim.NewRNG(9)
			det := detect.NewDetector(9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				frame, meta := frameOfSize(rng, det, 4096, i)
				b.StartTimer()
				if _, err := client.StoreFrame(frame, meta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuery measures the query engine's executor paths.
func BenchmarkQuery(b *testing.B) {
	fw, client := benchFramework(b, 4, nil)
	rng := sim.NewRNG(10)
	det := detect.NewDetector(10)
	var txIDs []string
	var labels []string
	for i := 0; i < 20; i++ {
		frame, meta := frameOfSize(rng, det, 2048, i)
		receipt, err := client.StoreFrame(frame, meta)
		if err != nil {
			b.Fatal(err)
		}
		txIDs = append(txIDs, receipt.TxID)
		labels = append(labels, meta.PrimaryLabel())
	}
	qe := fw.QueryEngine(0)

	b.Run("metadata-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qe.Metadata(txIDs[i%len(txIDs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("by-label-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qe.Execute(query.Request{Kind: query.ByLabel, Value: labels[i%len(labels)]}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rich-selector", func(b *testing.B) {
		sel := map[string]any{"source": client.Identity().ID()}
		for i := 0; i < b.N; i++ {
			if _, err := qe.Execute(query.Request{Kind: query.BySelector, Selector: sel}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("provenance-chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qe.Provenance(txIDs[len(txIDs)-1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConsensusThroughput measures raw ordering throughput of the BFT
// core without chaincode work, each validator on a Bus over an in-process
// transport endpoint.
func BenchmarkConsensusThroughput(b *testing.B) {
	for _, n := range []int{4, 7} {
		b.Run(fmt.Sprintf("validators=%d", n), func(b *testing.B) {
			hub := transport.NewInProcNet(nil, nil)
			ids := make([]string, n)
			signers := make([]*msp.Signer, n)
			idents := make(map[string]msp.Identity)
			for i := 0; i < n; i++ {
				ids[i] = fmt.Sprintf("v%d", i)
				s, err := msp.NewSigner("org", ids[i], msp.RoleMember)
				if err != nil {
					b.Fatal(err)
				}
				signers[i] = s
				idents[ids[i]] = s.Identity
			}
			done := make(chan struct{}, 4096)
			var validators []*consensus.Validator
			for i := 0; i < n; i++ {
				first := i == 0
				v := consensus.NewValidator(consensus.Config{
					ID: ids[i], Validators: ids, Signer: signers[i], Identities: idents, Sender: consensus.NewBus(hub.Node(ids[i]), "bench"),
					Deliver: func(seq uint64, payload []byte) {
						if first {
							done <- struct{}{}
						}
					},
				})
				v.Start()
				validators = append(validators, v)
			}
			b.Cleanup(func() {
				for _, v := range validators {
					v.Stop()
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				validators[0].Propose([]byte(fmt.Sprintf("payload-%d", i)))
				<-done
			}
		})
	}
}

// BenchmarkStorageEngine compares the pluggable world-state engines
// (internal/storage) end-to-end: the full store pipeline running over the
// in-memory single-lock engine vs a durable deployment on the LSM persist
// engine, driven through the core.Config knob. The microbenchmark
// comparison lives in internal/storage and internal/statedb; this run
// proves the selection threads through core -> fabric -> peer.
func BenchmarkStorageEngine(b *testing.B) {
	for _, engine := range []storage.Engine{storage.EngineSingle, storage.EnginePersist} {
		b.Run(string(engine), func(b *testing.B) {
			dataDir := ""
			if engine == storage.EnginePersist {
				dataDir = b.TempDir()
			}
			fw, err := core.New(core.Config{
				Fabric: fabric.Config{
					NumPeers:         4,
					Cutter:           ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
					ConsensusTimeout: 500 * time.Millisecond,
				},
				IPFSNodes:     2,
				StorageEngine: engine,
				DataDir:       dataDir,
			})
			if err != nil {
				b.Fatalf("core.New: %v", err)
			}
			b.Cleanup(fw.Close)
			cam, err := msp.NewSigner("city", "engine-cam", msp.RoleTrustedSource)
			if err != nil {
				b.Fatal(err)
			}
			if err := fw.RegisterSource(cam.Identity, true); err != nil {
				b.Fatal(err)
			}
			client := fw.Client(cam, 0)
			rng := sim.NewRNG(11)
			det := detect.NewDetector(11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				frame, meta := frameOfSize(rng, det, 4096, i)
				b.StartTimer()
				if _, err := client.StoreFrame(frame, meta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
