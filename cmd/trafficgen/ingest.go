package main

import (
	"fmt"
	"time"

	"socialchain/internal/core"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/ingest"
	"socialchain/internal/metrics"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
	"socialchain/internal/sim"
	"socialchain/internal/storage"
)

type ingestConfig struct {
	mode        string
	records     int
	rate        float64 // records/s; 0 = closed loop
	concurrency int
	batch       int
	inflight    int
	peers       int
	durability  string
	dataDir     string
	seed        int64
}

// runIngest boots a framework and drives the ingest pipeline, printing a
// throughput/latency report. Closed loop submits as fast as the pipeline
// accepts (its bounded input queue is the only throttle); open loop
// offers records on a fixed schedule and reports how far the achieved
// rate fell behind the offered one.
func runIngest(cfg ingestConfig) error {
	mode := ingest.Mode(cfg.mode)
	if !mode.Valid() {
		return fmt.Errorf("unknown -ingest mode %q (valid: serial, batched, pipelined)", cfg.mode)
	}
	durability, err := storage.ParseDurability(cfg.durability)
	if err != nil {
		return err
	}
	fw, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers: cfg.peers,
			Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
		},
		IPFSNodes:         2,
		StorageDurability: durability,
		DataDir:           cfg.dataDir,
	})
	if err != nil {
		return err
	}
	defer fw.Close()
	cam, err := msp.NewSigner("city", "ingest-cam", msp.RoleTrustedSource)
	if err != nil {
		return err
	}
	if err := fw.RegisterSource(cam.Identity, true); err != nil {
		return err
	}
	client := fw.Client(cam, 0)
	fmt.Printf("network up: %d peers, 2 IPFS nodes; ingest mode=%s records=%d batch=%d workers=%d inflight=%d\n",
		cfg.peers, mode, cfg.records, cfg.batch, cfg.concurrency, cfg.inflight)
	if cfg.dataDir != "" {
		boot := fw.LedgerStats()
		fmt.Printf("durable deployment at %s: recovered chain height %d (%d txs)\n", cfg.dataDir, boot.Height, boot.TotalTxs)
	}

	// Pre-generate the records so generation cost stays out of the
	// measured window.
	rng := sim.NewRNG(cfg.seed)
	det := detect.NewDetector(cfg.seed)
	recs := make([]ingest.Record, cfg.records)
	for i := range recs {
		f := &detect.Frame{
			ID:         detect.FrameIDFor(fmt.Sprintf("gen-%d", i), i),
			VideoID:    fmt.Sprintf("gen-%d", i),
			CameraID:   "ingest-cam",
			Index:      i,
			Platform:   detect.PlatformStatic,
			Encoding:   detect.EncodingJPEG,
			Width:      1280,
			Height:     720,
			Data:       rng.Bytes(4 * 1024),
			Timestamp:  time.Now(),
			Location:   detect.GeoPoint{Latitude: 12.97, Longitude: 77.59},
			LightLevel: 1,
		}
		meta, _ := det.ExtractMetadata(f)
		recs[i] = ingest.Record{Signed: msp.NewSignedMessage(cam, f.Data), Meta: meta}
	}

	pipe := client.Pipeline(ingest.Config{
		Mode:        mode,
		AddWorkers:  cfg.concurrency,
		BatchSize:   cfg.batch,
		MaxInFlight: cfg.inflight,
	})
	pipe.Start()
	start := time.Now()
	if cfg.rate > 0 {
		interval := time.Duration(float64(time.Second) / cfg.rate)
		next := start
		for _, r := range recs {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			if err := pipe.Submit(r); err != nil {
				return err
			}
			next = next.Add(interval)
		}
	} else {
		for _, r := range recs {
			if err := pipe.Submit(r); err != nil {
				return err
			}
		}
	}
	offered := time.Since(start)
	results := pipe.Drain()
	stats := pipe.Stats()

	lat := metrics.NewStats()
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Printf("record %d failed: %v\n", r.Index, r.Err)
			continue
		}
		lat.AddDuration(r.Latency)
	}
	fmt.Printf("\ningested %d/%d records in %.3fs (%d batches, %d failed)\n",
		stats.Stored, stats.Submitted, stats.Elapsed.Seconds(), stats.Batches, failed)
	fmt.Printf("throughput: %.1f records/s", stats.Throughput())
	if cfg.rate > 0 {
		fmt.Printf(" (offered %.1f records/s over %.3fs)", cfg.rate, offered.Seconds())
	}
	fmt.Println()
	fmt.Printf("commit latency: %s\n", lat.Summary())

	ledgerStats := fw.LedgerStats()
	fmt.Printf("chain: height=%d txs=%d valid=%d\n", ledgerStats.Height, ledgerStats.TotalTxs, ledgerStats.ValidTxs)
	if err := fw.Net.ChannelAt(0).Peer(0).Ledger().VerifyChain(); err != nil {
		return fmt.Errorf("chain verification failed: %w", err)
	}
	fmt.Println("hash chain verified on peer 0")
	if failed > 0 {
		return fmt.Errorf("%d records failed", failed)
	}
	return nil
}
