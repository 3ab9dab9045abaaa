// Command benchharness regenerates the paper's evaluation figures as text
// tables and CSV series. Each -fig value reproduces one artefact:
//
//	2     sample metadata record (Figure 2)
//	3     detection confidence, static vs drone (Figure 3)
//	4     metadata extraction time vs frame size (Figure 4)
//	5     IPFS storage time vs file size, with/without blockchain (Figure 5)
//	6     retrieval time vs file size, with/without blockchain (Figure 6)
//	bft       BFT fault-tolerance ablation
//	trust     trust-score evolution ablation
//	scale     peer-count scalability ablation
//	storage   world-state engine ablation (single-lock vs sharded)
//	retrieval retrieval-pipeline ablation (indexed vs scan, concurrent vs
//	          serial fetch, payload cache on/off)
//	ingest    ingest-pipeline ablation (serial vs batched endorsement vs
//	          fully pipelined, -ingest-records records end to end)
//	durability persist-engine ablation (WAL-backed commits vs in-memory,
//	          recovery time, end-to-end durable-ingest overhead + a
//	          kill/reopen resume check)
//	lsm       LSM persist-engine ablation (memtable + SSTables + bloom
//	          filters vs the map-plus-WAL baseline: ingest rate, cold
//	          reopen at 10k/200k records, negative-read cost with
//	          blooms on/off)
//	consensus consensus/crypto hot-path ablation (serial vs batch vs
//	          cached signature verification, lockstep vs overlapped
//	          rounds, multi-source e2e ingest with overlap on/off)
//	channels  multi-channel sharding ablation (aggregate pipelined-ingest
//	          throughput at 1, 2 and 4 channels)
//	wire      consensus-transport ablation (the same ingest workload over
//	          in-process delivery vs framed localhost TCP sockets)
//	obs       observability-overhead ablation (the pipelined ingest workload
//	          with the obs metrics registry + tracing attached and a
//	          concurrent scraper, vs fully disabled)
//	all       everything above
//
// The -engine flag selects the world-state storage engine ("single",
// "sharded", "persist" or "mapwal") for every framework the harness
// builds, so any
// figure can be regenerated under any engine. The -transport flag
// likewise selects the consensus transport ("inproc" or "tcp") for every
// framework the harness builds, so any existing figure can be re-measured
// over the real wire. -out FILE writes the scalar
// metrics the figures record as a flat JSON map, the artefact the CI
// bench job diffs against its committed baseline.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// figures, for digging into hot paths with `go tool pprof` (see
// DESIGN.md, "Consensus hot path").
//
// Usage: benchharness [-fig all] [-samples 20] [-csv] [-engine sharded] [-out BENCH.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"socialchain/internal/consensus"
	"socialchain/internal/contracts"
	"socialchain/internal/core"
	"socialchain/internal/dataset"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/ingest"
	"socialchain/internal/metrics"
	"socialchain/internal/msp"
	"socialchain/internal/ordering"
	"socialchain/internal/query"
	"socialchain/internal/sim"
	"socialchain/internal/statedb"
	"socialchain/internal/storage"
	"socialchain/internal/transport"
	"socialchain/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2,3,4,5,6,bft,trust,scale,storage,retrieval,ingest,durability,lsm,consensus,channels,wire,obs,all")
	samples := flag.Int("samples", 20, "measurements per point")
	csv := flag.Bool("csv", false, "emit CSV series instead of tables")
	seed := flag.Int64("seed", 1, "workload seed")
	engine := flag.String("engine", string(storage.EngineSharded), "world-state storage engine: single, sharded or persist")
	transportKind := flag.String("transport", "", "consensus transport for figure deployments: inproc (default) or tcp")
	out := flag.String("out", "", "write recorded scalar metrics as a JSON map to this file")
	ingestRecords := flag.Int("ingest-records", 10000, "records per mode in the ingest ablation")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the selected figures to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected figures to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("create cpu profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("start cpu profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatalf("create mem profile: %v", err)
			}
			defer f.Close()
			runtime.GC() // materialise the retained heap before sampling
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("write mem profile: %v", err)
			}
		}()
	}

	switch storage.Engine(*engine) {
	case storage.EngineSingle, storage.EngineSharded, storage.EnginePersist, storage.EngineMapWAL:
	default:
		log.Fatalf("unknown engine %q (valid: %s, %s, %s, %s)", *engine,
			storage.EngineSingle, storage.EngineSharded, storage.EnginePersist, storage.EngineMapWAL)
	}
	if _, err := transport.ParseKind(*transportKind); err != nil {
		log.Fatal(err)
	}
	h := &harness{samples: *samples, csv: *csv, seed: *seed, engine: storage.Engine(*engine), transport: *transportKind, ingestRecords: *ingestRecords, metrics: make(map[string]float64)}
	run := map[string]func() error{
		"2":          h.figure2,
		"3":          h.figure3,
		"4":          h.figure4,
		"5":          h.figure5,
		"6":          h.figure6,
		"bft":        h.bft,
		"trust":      h.trust,
		"scale":      h.scale,
		"storage":    h.storage,
		"retrieval":  h.retrieval,
		"ingest":     h.ingest,
		"durability": h.durability,
		"lsm":        h.lsm,
		"consensus":  h.consensus,
		"channels":   h.channels,
		"wire":       h.wire,
		"obs":        h.obs,
	}
	order := []string{"2", "3", "4", "5", "6", "bft", "trust", "scale", "storage", "retrieval", "ingest", "durability", "lsm", "consensus", "channels", "wire", "obs"}
	want := strings.Split(*fig, ",")
	if *fig == "all" {
		want = order
	}
	for _, f := range want {
		fn, ok := run[strings.TrimSpace(f)]
		if !ok {
			log.Fatalf("unknown figure %q (valid: %s, all)", f, strings.Join(order, ","))
		}
		if err := fn(); err != nil {
			log.Fatalf("figure %s: %v", f, err)
		}
	}
	if *out != "" {
		enc, err := json.MarshalIndent(h.metrics, "", "  ")
		if err != nil {
			log.Fatalf("marshal metrics: %v", err)
		}
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			log.Fatalf("write %s: %v", *out, err)
		}
	}
}

type harness struct {
	samples       int
	csv           bool
	seed          int64
	engine        storage.Engine
	transport     string
	ingestRecords int
	// metrics collects named scalars for -out (figure functions record
	// what CI tracks for regressions).
	metrics map[string]float64
}

// record stores one scalar for the -out artefact.
func (h *harness) record(name string, v float64) { h.metrics[name] = v }

func (h *harness) header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

func (h *harness) emit(series ...*metrics.Series) {
	if h.csv {
		for _, s := range series {
			s.WriteCSV(os.Stdout)
		}
		return
	}
	tbl := metrics.NewTable(append([]string{"x"}, labelsOf(series)...)...)
	for i := range series[0].X {
		row := []any{series[0].X[i]}
		for _, s := range series {
			row = append(row, s.Y[i])
		}
		tbl.AddRow(row...)
	}
	tbl.Render(os.Stdout)
}

func labelsOf(series []*metrics.Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Label
	}
	return out
}

// figure2 prints one extracted metadata record in the paper's Figure 2
// shape.
func (h *harness) figure2() error {
	h.header("Figure 2 — sample metadata record")
	corpus := dataset.Generate(dataset.Config{Seed: h.seed, NumVideos: 1, FramesPerVideo: 1, NumDroneFlights: 1, FramesPerFlight: 1})
	det := detect.NewDetector(h.seed)
	rec, _ := det.ExtractMetadata(&corpus.Static[0].Frames[0])
	b, err := json.MarshalIndent(rec.Detections[0], "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("metadata %s\n", b)
	return nil
}

// figure3 prints the per-platform confidence distributions.
func (h *harness) figure3() error {
	h.header("Figure 3 — detection confidence: static vs drone")
	corpus := dataset.Generate(dataset.Config{Seed: h.seed, NumVideos: 52, FramesPerVideo: 10, NumDroneFlights: 12, FramesPerFlight: 10})
	det := detect.NewDetector(h.seed)

	collect := func(videos []dataset.Video) (*metrics.Stats, *metrics.Histogram) {
		stats := metrics.NewStats()
		hist := metrics.NewHistogram(0, 1, 20)
		for i := range videos {
			for j := range videos[i].Frames {
				for _, d := range det.Detect(&videos[i].Frames[j]) {
					stats.Add(d.Confidence)
					hist.Add(d.Confidence)
				}
			}
		}
		return stats, hist
	}
	staticStats, staticHist := collect(corpus.Static)
	droneStats, droneHist := collect(corpus.Drone)

	tbl := metrics.NewTable("platform", "detections", "conf-mean", "conf-std", "p5", "p95")
	tbl.AddRow("static", staticStats.N(), staticStats.Mean(), staticStats.Std(), staticStats.Percentile(5), staticStats.Percentile(95))
	tbl.AddRow("drone", droneStats.N(), droneStats.Mean(), droneStats.Std(), droneStats.Percentile(5), droneStats.Percentile(95))
	tbl.Render(os.Stdout)
	if !h.csv {
		fmt.Println("\nstatic confidence distribution:")
		fmt.Print(staticHist.Render(40))
		fmt.Println("drone confidence distribution:")
		fmt.Print(droneHist.Render(40))
	}
	return nil
}

// figure4 prints extraction time against frame size.
func (h *harness) figure4() error {
	h.header("Figure 4 — metadata extraction time vs frame size")
	det := detect.NewDetector(h.seed)
	rng := sim.NewRNG(h.seed)
	corpus := dataset.Generate(dataset.Config{Seed: h.seed, NumVideos: 20, FramesPerVideo: 5, NumDroneFlights: 5, FramesPerFlight: 5, MeanFrameKB: 32})
	_ = rng
	s := &metrics.Series{Label: "extract_s"}
	for _, f := range corpus.AllFrames() {
		_, dur := det.ExtractMetadata(f)
		s.Append(float64(f.SizeBytes())/1024, dur.Seconds())
	}
	if h.csv {
		s.WriteCSV(os.Stdout)
		return nil
	}
	tbl := metrics.NewTable("size_kb", "extract_s")
	for i := range s.X {
		tbl.AddRow(s.X[i], s.Y[i])
	}
	tbl.Render(os.Stdout)
	return nil
}

// storageFramework builds the default evaluation deployment: 4 peers
// (paper: 2 peers + orderer; we keep BFT-viable 4) and 2 IPFS nodes, with
// LAN-like latency so overheads resemble the Docker-on-one-host testbed.
func (h *harness) storageFramework() (*core.Framework, *core.Client, error) {
	rng := sim.NewRNG(h.seed)
	fw, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers: 4,
			Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
			Latency:  sim.LANLatency(rng),
		},
		IPFSNodes:     2,
		IPFSLatency:   sim.LANLatency(rng.Fork()),
		StorageEngine: h.engine,
		Transport:     h.transport,
	})
	if err != nil {
		return nil, nil, err
	}
	cam, err := msp.NewSigner("city", "harness-cam", msp.RoleTrustedSource)
	if err != nil {
		fw.Close()
		return nil, nil, err
	}
	if err := fw.RegisterSource(cam.Identity, true); err != nil {
		fw.Close()
		return nil, nil, err
	}
	return fw, fw.Client(cam, 0), nil
}

func frameOfSize(rng *sim.RNG, det *detect.Detector, size, idx int) (*detect.Frame, detect.MetadataRecord) {
	f := &detect.Frame{
		ID:         detect.FrameIDFor(fmt.Sprintf("harness-%d", idx), idx),
		VideoID:    fmt.Sprintf("harness-%d", idx),
		CameraID:   "harness-cam",
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

// figure5 prints storage time vs size, with and without blockchain.
func (h *harness) figure5() error {
	h.header("Figure 5 — storage time vs file size (IPFS alone vs with blockchain)")
	fw, client, err := h.storageFramework()
	if err != nil {
		return err
	}
	defer fw.Close()
	rng := sim.NewRNG(h.seed)
	det := detect.NewDetector(h.seed)
	ipfsOnly := &metrics.Series{Label: "ipfs_only_s"}
	withBC := &metrics.Series{Label: "with_blockchain_s"}
	for _, size := range workload.DefaultStorageSweep() {
		ipfsStat := metrics.NewStats()
		totalStat := metrics.NewStats()
		for i := 0; i < h.samples; i++ {
			frame, meta := frameOfSize(rng, det, size, i)
			receipt, err := client.StoreFrame(frame, meta)
			if err != nil {
				return err
			}
			ipfsStat.AddDuration(receipt.Timing.IPFS)
			totalStat.AddDuration(receipt.Timing.Total())
		}
		kb := float64(size) / 1024
		ipfsOnly.Append(kb, ipfsStat.Mean())
		withBC.Append(kb, totalStat.Mean())
	}
	h.emit(ipfsOnly, withBC)
	return nil
}

// figure6 prints retrieval time vs size, with and without blockchain.
func (h *harness) figure6() error {
	h.header("Figure 6 — retrieval time vs file size (IPFS alone vs with blockchain)")
	fw, client, err := h.storageFramework()
	if err != nil {
		return err
	}
	defer fw.Close()
	rng := sim.NewRNG(h.seed)
	det := detect.NewDetector(h.seed)
	reader := fw.Client(fw.Admin, 1)
	ipfsOnly := &metrics.Series{Label: "ipfs_only_s"}
	withBC := &metrics.Series{Label: "with_blockchain_s"}
	for _, size := range workload.DefaultStorageSweep() {
		frame, meta := frameOfSize(rng, det, size, 0)
		receipt, err := client.StoreFrame(frame, meta)
		if err != nil {
			return err
		}
		ipfsStat := metrics.NewStats()
		totalStat := metrics.NewStats()
		for i := 0; i < h.samples; i++ {
			res, err := reader.RetrieveData(receipt.TxID)
			if err != nil {
				return err
			}
			ipfsStat.AddDuration(res.Timing.IPFS)
			totalStat.AddDuration(res.Timing.Total())
		}
		kb := float64(size) / 1024
		ipfsOnly.Append(kb, ipfsStat.Mean())
		withBC.Append(kb, totalStat.Mean())
	}
	h.emit(ipfsOnly, withBC)
	return nil
}

// bft sweeps byzantine validator counts on a 7-peer network.
func (h *harness) bft() error {
	h.header("Ablation — BFT fault tolerance (n=7, f=2)")
	tbl := metrics.NewTable("byzantine", "stores_ok", "stores_failed", "mean_latency_s")
	for _, byz := range []int{0, 1, 2} {
		behaviors := map[int]consensus.Behavior{}
		for i := 0; i < byz; i++ {
			behaviors[i+1] = consensus.Silent{}
		}
		fw, err := core.New(core.Config{
			Fabric: fabric.Config{
				NumPeers:         7,
				Cutter:           ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
				Behaviors:        behaviors,
				ConsensusTimeout: 500 * time.Millisecond,
			},
			IPFSNodes:     2,
			StorageEngine: h.engine,
			Transport:     h.transport,
		})
		if err != nil {
			return err
		}
		cam, err := msp.NewSigner("city", "bft-cam", msp.RoleTrustedSource)
		if err != nil {
			fw.Close()
			return err
		}
		if err := fw.RegisterSource(cam.Identity, true); err != nil {
			fw.Close()
			return err
		}
		client := fw.Client(cam, 0)
		rng := sim.NewRNG(h.seed)
		det := detect.NewDetector(h.seed)
		lat := metrics.NewStats()
		ok, failed := 0, 0
		for i := 0; i < h.samples; i++ {
			frame, meta := frameOfSize(rng, det, 8*1024, i)
			start := time.Now()
			if _, err := client.StoreFrame(frame, meta); err != nil {
				failed++
				continue
			}
			lat.AddDuration(time.Since(start))
			ok++
		}
		tbl.AddRow(byz, ok, failed, lat.Mean())
		fw.Close()
	}
	tbl.Render(os.Stdout)
	return nil
}

// trust shows score evolution for an honest and a dishonest source.
func (h *harness) trust() error {
	h.header("Ablation — trust score evolution (honest vs dishonest source)")
	fw, _, err := h.storageFramework()
	if err != nil {
		return err
	}
	defer fw.Close()
	honest, err := msp.NewSigner("crowd", "honest", msp.RoleUntrustedSource)
	if err != nil {
		return err
	}
	dishonest, err := msp.NewSigner("crowd", "dishonest", msp.RoleUntrustedSource)
	if err != nil {
		return err
	}
	for _, s := range []*msp.Signer{honest, dishonest} {
		if err := fw.RegisterSource(s.Identity, false); err != nil {
			return err
		}
	}
	honestClient := fw.Client(honest, 0)
	dishonestClient := fw.Client(dishonest, 0)
	rng := sim.NewRNG(h.seed)
	det := detect.NewDetector(h.seed)

	tbl := metrics.NewTable("round", "honest_score", "dishonest_score", "dishonest_gated")
	rounds := h.samples
	if rounds > 12 {
		rounds = 12
	}
	for round := 1; round <= rounds; round++ {
		frame, meta := frameOfSize(rng, det, 4*1024, round)
		if _, err := honestClient.StoreFrame(frame, meta); err != nil {
			return fmt.Errorf("honest store: %w", err)
		}
		badFrame, badMeta := frameOfSize(rng, det, 4*1024, 1000+round)
		badMeta.DataHash = strings.Repeat("0", 64) // fails hash integrity
		_, badErr := dishonestClient.StoreFrame(badFrame, badMeta)
		gated := badErr != nil

		hs, err := fw.TrustScore(honest.Identity.ID())
		if err != nil {
			return err
		}
		ds, err := fw.TrustScore(dishonest.Identity.ID())
		if err != nil {
			return err
		}
		tbl.AddRow(round, hs.Score, ds.Score, gated)
	}
	tbl.Render(os.Stdout)
	return nil
}

// scale sweeps the peer count against store latency.
func (h *harness) scale() error {
	h.header("Ablation — peer-count scalability")
	tbl := metrics.NewTable("peers", "mean_store_s", "p95_store_s")
	for _, peers := range []int{4, 7, 10, 13} {
		fw, err := core.New(core.Config{
			Fabric: fabric.Config{
				NumPeers: peers,
				Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
			},
			IPFSNodes:     2,
			StorageEngine: h.engine,
			Transport:     h.transport,
		})
		if err != nil {
			return err
		}
		cam, err := msp.NewSigner("city", "scale-cam", msp.RoleTrustedSource)
		if err != nil {
			fw.Close()
			return err
		}
		if err := fw.RegisterSource(cam.Identity, true); err != nil {
			fw.Close()
			return err
		}
		client := fw.Client(cam, 0)
		rng := sim.NewRNG(h.seed)
		det := detect.NewDetector(h.seed)
		lat := metrics.NewStats()
		for i := 0; i < h.samples; i++ {
			frame, meta := frameOfSize(rng, det, 8*1024, i)
			start := time.Now()
			if _, err := client.StoreFrame(frame, meta); err != nil {
				fw.Close()
				return err
			}
			lat.AddDuration(time.Since(start))
		}
		tbl.AddRow(peers, lat.Mean(), lat.Percentile(95))
		fw.Close()
	}
	tbl.Render(os.Stdout)
	return nil
}

// retrieval reproduces the retrieval-pipeline ablation in two parts.
//
// Part A seeds a 10k-record world state (production index set) and times
// one conditional metadata query three ways: the full namespace scan
// (ScanQuery, the pre-index behaviour), the indexed short-circuit
// (ExecuteQuery via the label index) and a raw 100-entry index page.
//
// Part B stores a batch of payloads through a LAN-latency framework and
// times GetMany over a remote IPFS node: serial (1 worker), concurrent
// (8 workers), and a cache-warm pass through the payload cache.
func (h *harness) retrieval() error {
	h.header("Ablation — retrieval pipeline (indexed vs scan, concurrent vs serial, cache)")

	// --- Part A: indexed vs scan conditional queries at 10k records.
	const (
		records   = 10000
		numLabels = 25
	)
	db, err := statedb.NewIndexedWith(storage.Config{Engine: h.engine}, contracts.DataIndexes()...)
	if err != nil {
		return err
	}
	const batchSize = 500
	for start := 0; start < records; start += batchSize {
		batch := statedb.NewUpdateBatch()
		for i := start; i < start+batchSize && i < records; i++ {
			doc := fmt.Sprintf(`{"tx_id":"tx-%06d","cid":"bafy%06d","label":"label-%02d","source":"org/src-%02d",`+
				`"metadata":{"camera_id":"cam-%d","frame_id":"f-%d"},"data_hash":"%064d",`+
				`"size_bytes":4096,"submitted":"2026-07-%02dT%02d:%02d:00Z","seq":%d}`,
				i, i, i%numLabels, i%50, i%10, i, i, 1+i%28, i/3600%24, i/60%60, i)
			batch.Put("data", fmt.Sprintf("rec/%06d", i), []byte(doc))
		}
		db.ApplyUpdates(batch, statedb.Version{BlockNum: uint64(start/batchSize + 1)})
	}
	queries := h.samples
	if queries < 5 {
		queries = 5
	}
	scanStat, idxStat, pageStat := metrics.NewStats(), metrics.NewStats(), metrics.NewStats()
	for q := 0; q < queries; q++ {
		sel := statedb.Selector{"label": fmt.Sprintf("label-%02d", q%numLabels)}
		start := time.Now()
		scanned, err := db.ScanQuery("data", sel)
		scanStat.AddDuration(time.Since(start))
		if err != nil {
			return err
		}
		start = time.Now()
		indexed, err := db.ExecuteQuery("data", sel)
		idxStat.AddDuration(time.Since(start))
		if err != nil {
			return err
		}
		if len(indexed) != len(scanned) || len(indexed) != records/numLabels {
			return fmt.Errorf("retrieval: indexed %d vs scanned %d results", len(indexed), len(scanned))
		}
		start = time.Now()
		page, err := db.IterIndex(contracts.IndexLabel, fmt.Sprintf("label-%02d", q%numLabels), 100, 0, "")
		pageStat.AddDuration(time.Since(start))
		if err != nil {
			return err
		}
		if len(page.Entries) != 100 {
			return fmt.Errorf("retrieval: index page returned %d entries", len(page.Entries))
		}
	}
	speedup := scanStat.Mean() / idxStat.Mean()
	h.record("scan_by_label_s", scanStat.Mean())
	h.record("indexed_by_label_s", idxStat.Mean())
	h.record("index_speedup_x", speedup)
	h.record("iter_index_page_s", pageStat.Mean())

	// --- Part B: serial vs concurrent vs cached batch retrieval.
	fw, client, err := h.storageFramework()
	if err != nil {
		return err
	}
	defer fw.Close()
	rng := sim.NewRNG(h.seed)
	det := detect.NewDetector(h.seed)
	batch := h.samples
	if batch < 8 {
		batch = 8
	}
	if batch > 24 {
		batch = 24
	}
	txIDs := make([]string, 0, batch)
	for i := 0; i < batch; i++ {
		frame, meta := frameOfSize(rng, det, 16*1024, i)
		receipt, err := client.StoreFrame(frame, meta)
		if err != nil {
			return err
		}
		txIDs = append(txIDs, receipt.TxID)
	}
	// Reads go to the second IPFS node so payloads are fetched over the
	// simulated network; its blockstore is wiped between passes so every
	// pass pays the full fetch.
	remote := fw.Cluster.Node(1)
	wipeRemote := func() error {
		for _, k := range remote.Blockstore().AllKeys() {
			if err := remote.Blockstore().Delete(k); err != nil {
				return err
			}
		}
		return nil
	}
	checkItems := func(mode string, items []query.BatchItem) error {
		for _, item := range items {
			if item.Err != nil {
				return fmt.Errorf("retrieval: %s fetch %s: %w", mode, item.TxID, item.Err)
			}
			if !item.Verified {
				return fmt.Errorf("retrieval: %s fetch %s: not verified", mode, item.TxID)
			}
		}
		return nil
	}
	runPass := func(mode string, eng *query.Engine, workers int) (float64, error) {
		start := time.Now()
		items := eng.GetMany(txIDs, workers)
		elapsed := time.Since(start).Seconds()
		if err := checkItems(mode, items); err != nil {
			return 0, err
		}
		return elapsed, nil
	}

	serialEng := query.NewEngine(fw.AdminGateway(), remote)
	serialS, err := runPass("serial", serialEng, 1)
	if err != nil {
		return err
	}
	if err := wipeRemote(); err != nil {
		return err
	}
	concEng := query.NewEngine(fw.AdminGateway(), remote)
	concS, err := runPass("concurrent", concEng, 8)
	if err != nil {
		return err
	}
	if err := wipeRemote(); err != nil {
		return err
	}
	cachedEng := query.NewEngine(fw.AdminGateway(), remote).WithPayloadCache(64 << 20).WithWorkers(8)
	if _, err := runPass("cache-warmup", cachedEng, 8); err != nil {
		return err
	}
	cachedS, err := runPass("cached", cachedEng, 8)
	if err != nil {
		return err
	}
	hitRate := cachedEng.CacheStats().HitRate()

	h.record("serial_getmany_s", serialS)
	h.record("concurrent_getmany_s", concS)
	h.record("fetch_speedup_x", serialS/concS)
	h.record("cached_getmany_s", cachedS)
	h.record("cache_hit_rate", hitRate)

	if h.csv {
		queryS := &metrics.Series{Label: "query_mode_s"} // x: 0=scan 1=indexed 2=index_page
		queryS.Append(0, scanStat.Mean())
		queryS.Append(1, idxStat.Mean())
		queryS.Append(2, pageStat.Mean())
		fetchS := &metrics.Series{Label: "getmany_mode_s"} // x: workers (0 = cached)
		fetchS.Append(1, serialS)
		fetchS.Append(8, concS)
		fetchS.Append(0, cachedS)
		queryS.WriteCSV(os.Stdout)
		fetchS.WriteCSV(os.Stdout)
		return nil
	}
	qt := metrics.NewTable("metadata_query (10k records)", "mean_s", "speedup_vs_scan")
	qt.AddRow("full scan (ScanQuery)", scanStat.Mean(), 1.0)
	qt.AddRow("indexed (ExecuteQuery)", idxStat.Mean(), speedup)
	qt.AddRow("index page (IterIndex, 100)", pageStat.Mean(), scanStat.Mean()/pageStat.Mean())
	qt.Render(os.Stdout)
	fmt.Println()
	ft := metrics.NewTable(fmt.Sprintf("payload_fetch (%d x 16KB)", batch), "total_s", "per_item_s")
	ft.AddRow("serial (1 worker)", serialS, serialS/float64(batch))
	ft.AddRow("concurrent (8 workers)", concS, concS/float64(batch))
	ft.AddRow(fmt.Sprintf("cached (hit rate %.2f)", hitRate), cachedS, cachedS/float64(batch))
	ft.Render(os.Stdout)
	return nil
}

// ingest reproduces the write-path ablation: -ingest-records records are
// pushed end to end (chunk + IPFS add + endorse + BFT order + commit)
// through the ingest pipeline in each mode, over the same LAN-latency
// deployment the storage figures use:
//
//	serial    one record per envelope, one add worker, one in flight —
//	          the paper's one-at-a-time store loop
//	batched   batched endorsement (one envelope per 100 records), still
//	          sequential stages
//	pipelined batched + concurrent IPFS adds + overlapped commit
//
// The recorded metrics (ingest_*_rps, ingest_pipelined_speedup_x) feed
// the CI regression gate.
func (h *harness) ingest() error {
	h.header(fmt.Sprintf("Ablation — ingest pipeline (serial vs batched vs pipelined, %d records)", h.ingestRecords))
	// A generous flush interval lets envelopes fill to BatchSize even
	// when the add stage (one worker, LAN-latency IPFS) trickles records
	// in; throughput mode trades batch dwell for fewer consensus rounds.
	const (
		batchSize = 100
		flush     = 250 * time.Millisecond
	)
	// MaxInFlight is 1: a single source's envelopes form a serial MVCC
	// dependency chain through the provenance head, so a second in-flight
	// envelope only burns consensus rounds on invalidations (see
	// DESIGN.md); the overlap that pays here is adds-vs-commit.
	configs := []ingest.Config{
		{Mode: ingest.ModeSerial},
		{Mode: ingest.ModeBatched, BatchSize: batchSize, FlushInterval: flush},
		{Mode: ingest.ModePipelined, BatchSize: batchSize, AddWorkers: 8, MaxInFlight: 1, FlushInterval: flush},
	}
	tbl := metrics.NewTable("mode", "records", "batches", "wall_s", "records_per_s", "p95_latency_s", "speedup_x")
	series := &metrics.Series{Label: "ingest_rps"} // x: 0=serial 1=batched 2=pipelined
	var serialRPS float64
	for mi, cfg := range configs {
		rng := sim.NewRNG(h.seed)
		fw, err := core.New(core.Config{
			Fabric: fabric.Config{
				NumPeers: 4,
				Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
				Latency:  sim.LANLatency(rng),
			},
			IPFSNodes:     2,
			IPFSLatency:   sim.LANLatency(rng.Fork()),
			StorageEngine: h.engine,
			Transport:     h.transport,
		})
		if err != nil {
			return err
		}
		cam, err := msp.NewSigner("city", "ingest-cam", msp.RoleTrustedSource)
		if err != nil {
			fw.Close()
			return err
		}
		if err := fw.RegisterSource(cam.Identity, true); err != nil {
			fw.Close()
			return err
		}
		client := fw.Client(cam, 0)
		det := detect.NewDetector(h.seed)
		frameRNG := sim.NewRNG(h.seed + 7)
		records := make([]ingest.Record, h.ingestRecords)
		for i := range records {
			frame, meta := frameOfSize(frameRNG, det, 4*1024, i)
			records[i] = ingest.Record{Signed: msp.NewSignedMessage(cam, frame.Data), Meta: meta}
		}
		pipe := client.Pipeline(cfg)
		results := pipe.Run(records)
		stats := pipe.Stats()
		lat := metrics.NewStats()
		for _, r := range results {
			if r.Err != nil {
				fw.Close()
				return fmt.Errorf("ingest %s: record %d: %w", cfg.Mode, r.Index, r.Err)
			}
			lat.AddDuration(r.Latency)
		}
		fw.Close()
		rps := stats.Throughput()
		if cfg.Mode == ingest.ModeSerial {
			serialRPS = rps
		}
		speedup := 1.0
		if serialRPS > 0 {
			speedup = rps / serialRPS
		}
		h.record(fmt.Sprintf("ingest_%s_rps", cfg.Mode), rps)
		if cfg.Mode != ingest.ModeSerial {
			h.record(fmt.Sprintf("ingest_%s_speedup_x", cfg.Mode), speedup)
		}
		tbl.AddRow(string(cfg.Mode), stats.Stored, stats.Batches, stats.Elapsed.Seconds(), rps, lat.Percentile(95), speedup)
		series.Append(float64(mi), rps)
	}
	if h.csv {
		series.WriteCSV(os.Stdout)
		return nil
	}
	tbl.Render(os.Stdout)
	return nil
}

// durability measures what the WAL-backed persist engine costs and buys.
//
// Part A (micro, statedb-level): 10k records committed in 20-write
// batches through the sharded engine and through persist; then the
// persist statedb is closed and reopened, timing WAL replay recovery.
//
// Part B (end to end): the pipelined ingest workload runs twice on
// identical frameworks — RAM-only vs fully durable (-data-dir: persist
// world state, block logs, IPFS blockstores) — and the durable deployment
// is then closed and reopened, verifying the chain resumes at the same
// height and timing the full recovery.
//
// Recorded metrics: commit/ingest efficiency ratios (persist as a
// fraction of in-memory, higher is better) and recovery latencies.
func (h *harness) durability() error {
	h.header("Ablation — durability (WAL-backed persist engine vs in-memory)")

	// --- Part A: statedb commit overhead + recovery.
	const (
		keys      = 10000
		batchKeys = 20
	)
	commitRate := func(cfg storage.Config) (float64, *statedb.DB, error) {
		db, err := statedb.NewWith(cfg)
		if err != nil {
			return 0, nil, err
		}
		start := time.Now()
		for base := 0; base < keys; base += batchKeys {
			batch := statedb.NewUpdateBatch()
			for i := base; i < base+batchKeys && i < keys; i++ {
				batch.Put("data", fmt.Sprintf("rec/%06d", i),
					[]byte(fmt.Sprintf(`{"label":"label-%02d","idx":%d}`, i%25, i)))
			}
			db.ApplyUpdates(batch, statedb.Version{BlockNum: uint64(base/batchKeys + 1)})
		}
		return float64(keys) / time.Since(start).Seconds(), db, nil
	}
	shardedRate, shardedDB, err := commitRate(storage.Config{Engine: storage.EngineSharded})
	if err != nil {
		return err
	}
	_ = shardedDB.Close()
	persistDir, err := os.MkdirTemp("", "benchharness-durability-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(persistDir)
	persistCfg := storage.Config{Engine: storage.EnginePersist, Dir: persistDir}
	persistRate, persistDB, err := commitRate(persistCfg)
	if err != nil {
		return err
	}
	if err := persistDB.Close(); err != nil {
		return err
	}
	start := time.Now()
	reopened, err := statedb.NewWith(persistCfg)
	if err != nil {
		return err
	}
	stateReopenS := time.Since(start).Seconds()
	if got := reopened.Keys("data"); got != keys {
		return fmt.Errorf("durability: recovered %d keys, want %d", got, keys)
	}
	if err := reopened.Close(); err != nil {
		return err
	}
	h.record("durability_commit_sharded_ops", shardedRate)
	h.record("durability_commit_persist_ops", persistRate)
	h.record("durability_commit_efficiency_x", persistRate/shardedRate)
	h.record("durability_state_reopen_s", stateReopenS)

	// --- Part B: end-to-end durable ingest + kill/reopen resume.
	records := h.ingestRecords / 4
	if records < 100 {
		records = 100
	}
	e2e := func(dataDir string) (float64, *core.Framework, error) {
		rng := sim.NewRNG(h.seed)
		fw, err := core.New(core.Config{
			Fabric: fabric.Config{
				NumPeers: 4,
				Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
				Latency:  sim.LANLatency(rng),
			},
			IPFSNodes:   2,
			IPFSLatency: sim.LANLatency(rng.Fork()),
			DataDir:     dataDir,
			Transport:   h.transport,
		})
		if err != nil {
			return 0, nil, err
		}
		cam, err := msp.NewSigner("city", "durability-cam", msp.RoleTrustedSource)
		if err != nil {
			fw.Close()
			return 0, nil, err
		}
		if err := fw.RegisterSource(cam.Identity, true); err != nil {
			fw.Close()
			return 0, nil, err
		}
		client := fw.Client(cam, 0)
		det := detect.NewDetector(h.seed)
		frameRNG := sim.NewRNG(h.seed + 7)
		recs := make([]ingest.Record, records)
		for i := range recs {
			frame, meta := frameOfSize(frameRNG, det, 4*1024, i)
			recs[i] = ingest.Record{Signed: msp.NewSignedMessage(cam, frame.Data), Meta: meta}
		}
		pipe := client.Pipeline(ingest.Config{
			Mode: ingest.ModePipelined, BatchSize: 100, AddWorkers: 8, MaxInFlight: 1,
			FlushInterval: 250 * time.Millisecond,
		})
		results := pipe.Run(recs)
		for _, r := range results {
			if r.Err != nil {
				fw.Close()
				return 0, nil, fmt.Errorf("durability ingest record %d: %w", r.Index, r.Err)
			}
		}
		return pipe.Stats().Throughput(), fw, nil
	}

	memRPS, memFW, err := e2e("")
	if err != nil {
		return err
	}
	memFW.Close()
	e2eDir, err := os.MkdirTemp("", "benchharness-durability-e2e-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(e2eDir)
	persistRPS, durableFW, err := e2e(e2eDir)
	if err != nil {
		return err
	}
	heightBefore := durableFW.LedgerStats().Height
	durableFW.Close()
	if err := durableFW.CloseErr(); err != nil {
		return fmt.Errorf("durability: close durable framework: %w", err)
	}
	start = time.Now()
	resumed, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers: 4,
			Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
		},
		IPFSNodes: 2,
		DataDir:   e2eDir,
		Transport: h.transport,
	})
	if err != nil {
		return fmt.Errorf("durability: reopen: %w", err)
	}
	e2eReopenS := time.Since(start).Seconds()
	resumedHeight := resumed.LedgerStats().Height
	resumed.Close()
	if resumedHeight < heightBefore {
		return fmt.Errorf("durability: resumed at height %d, had %d before the restart", resumedHeight, heightBefore)
	}
	h.record("durability_mem_ingest_rps", memRPS)
	h.record("durability_persist_ingest_rps", persistRPS)
	h.record("durability_ingest_efficiency_x", persistRPS/memRPS)
	h.record("durability_e2e_reopen_s", e2eReopenS)

	if h.csv {
		s := &metrics.Series{Label: "durability_rps"} // x: 0=mem 1=persist
		s.Append(0, memRPS)
		s.Append(1, persistRPS)
		s.WriteCSV(os.Stdout)
		return nil
	}
	ct := metrics.NewTable("statedb commit (10k records, 20-write batches)", "records_per_s", "vs_sharded")
	ct.AddRow("sharded (RAM)", shardedRate, 1.0)
	ct.AddRow("persist (WAL)", persistRate, persistRate/shardedRate)
	ct.Render(os.Stdout)
	fmt.Printf("\nstatedb recovery (WAL replay, 10k keys): %.4fs\n\n", stateReopenS)
	et := metrics.NewTable(fmt.Sprintf("e2e pipelined ingest (%d records)", records), "records_per_s", "vs_memory")
	et.AddRow("in-memory deployment", memRPS, 1.0)
	et.AddRow("durable deployment (-data-dir)", persistRPS, persistRPS/memRPS)
	et.Render(os.Stdout)
	fmt.Printf("\ne2e restart: closed at height %d, resumed at height %d in %.3fs\n",
		heightBefore, resumedHeight, e2eReopenS)
	return nil
}

// lsm is the storage-engine ablation behind the persist rewrite: the LSM
// engine (memtable + SSTables + bloom filters + manifest) against the
// map-plus-WAL baseline it replaced, measured at the engine level so
// nothing above storage.KV dilutes the numbers.
//
// Part A — ingest + cold reopen at two scales (10k and 200k records,
// 20-write batches mirroring block commits). The baseline's reopen
// replays every record ever written into a fresh map; the LSM replays
// only the WAL tail behind the last flushed memtable and opens SSTable
// indexes without touching data blocks, so its reopen cost is O(recent
// writes) instead of O(total state). lsm_reopen_speedup_x records the
// 200k-record ratio.
//
// Part B — point reads against the reopened 200k-record LSM: hits, and
// misses with bloom filters on vs off (same on-disk data, reopened with
// NoBloom). Blooms turn a negative lookup from a block fetch per level
// into an in-memory test; lsm_negread_bloom_speedup_x records the ratio.
func (h *harness) lsm() error {
	h.header("Ablation — LSM persist engine vs map-plus-WAL baseline")

	const batchKeys = 20
	// Bench-sized memtable so the 200k run flushes and compacts like a
	// long-lived node rather than fitting entirely in its first memtable.
	lsmCfg := func(dir string) storage.Config {
		return storage.Config{Engine: storage.EnginePersist, Dir: dir, MemtableBytes: 1 << 20}
	}
	mapCfg := func(dir string) storage.Config {
		return storage.Config{Engine: storage.EngineMapWAL, Dir: dir}
	}
	key := func(i int) string { return fmt.Sprintf("data\x00rec/%08d", i) }
	val := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"label":"label-%02d","idx":%d,"cid":"bafy%032d"}`, i%25, i, i))
	}
	ingestKV := func(kv storage.KV, n int) float64 {
		start := time.Now()
		for base := 0; base < n; base += batchKeys {
			batch := make([]storage.Write, 0, batchKeys)
			for i := base; i < base+batchKeys && i < n; i++ {
				batch = append(batch, storage.Write{Key: key(i), Value: val(i)})
			}
			kv.ApplyBatch(batch)
		}
		return float64(n) / time.Since(start).Seconds()
	}

	type result struct {
		rps     float64
		reopenS float64
	}
	sizes := []int{10000, 200000}
	sizeName := []string{"10k", "200k"}
	var lsmRes, mapRes [2]result
	var lsmDirs [2]string
	for si, n := range sizes {
		for _, eng := range []string{"mapwal", "lsm"} {
			dir, err := os.MkdirTemp("", "benchharness-lsm-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			cfg := mapCfg(dir)
			if eng == "lsm" {
				cfg = lsmCfg(dir)
				lsmDirs[si] = dir
			}
			kv, err := storage.Open(cfg)
			if err != nil {
				return err
			}
			rps := ingestKV(kv, n)
			if err := kv.Close(); err != nil {
				return err
			}
			start := time.Now()
			kv, err = storage.Open(cfg)
			if err != nil {
				return fmt.Errorf("lsm: reopen %s at %d records: %w", eng, n, err)
			}
			reopenS := time.Since(start).Seconds()
			if got := kv.Len(); got != n {
				return fmt.Errorf("lsm: %s reopened with %d keys, want %d", eng, got, n)
			}
			if err := kv.Close(); err != nil {
				return err
			}
			r := result{rps: rps, reopenS: reopenS}
			if eng == "lsm" {
				lsmRes[si] = r
			} else {
				mapRes[si] = r
			}
		}
	}

	// Part B: point reads on the reopened 200k LSM, blooms on vs off.
	const probes = 2000
	bigN := sizes[1]
	readLat := func(cfg storage.Config, miss bool) (float64, error) {
		kv, err := storage.Open(cfg)
		if err != nil {
			return 0, err
		}
		defer kv.Close()
		rng := sim.NewRNG(h.seed + int64(bigN))
		start := time.Now()
		for i := 0; i < probes; i++ {
			if miss {
				// In-fence but never written: the bloom filter, not the
				// key-range check, has to reject it.
				if _, ok := kv.Get(fmt.Sprintf("data\x00rec/%08d-x", rng.Intn(bigN))); ok {
					return 0, fmt.Errorf("lsm: phantom key answered")
				}
			} else {
				if _, ok := kv.Get(key(rng.Intn(bigN))); !ok {
					return 0, fmt.Errorf("lsm: stored key missing")
				}
			}
		}
		return time.Since(start).Seconds() / probes * 1e6, nil // µs/op
	}
	bloomed := lsmCfg(lsmDirs[1])
	unbloomed := bloomed
	unbloomed.NoBloom = true
	hitUS, err := readLat(bloomed, false)
	if err != nil {
		return err
	}
	missBloomUS, err := readLat(bloomed, true)
	if err != nil {
		return err
	}
	missNoBloomUS, err := readLat(unbloomed, true)
	if err != nil {
		return err
	}

	for si, name := range sizeName {
		h.record("lsm_ingest_mapwal_rps_"+name, mapRes[si].rps)
		h.record("lsm_ingest_persist_rps_"+name, lsmRes[si].rps)
		h.record("lsm_reopen_mapwal_s_"+name, mapRes[si].reopenS)
		h.record("lsm_reopen_persist_s_"+name, lsmRes[si].reopenS)
	}
	reopenSpeedup := mapRes[1].reopenS / lsmRes[1].reopenS
	h.record("lsm_reopen_speedup_x", reopenSpeedup)
	h.record("lsm_read_hit_us", hitUS)
	h.record("lsm_read_miss_bloom_us", missBloomUS)
	h.record("lsm_read_miss_nobloom_us", missNoBloomUS)
	negSpeedup := missNoBloomUS / missBloomUS
	h.record("lsm_negread_bloom_speedup_x", negSpeedup)

	if h.csv {
		s := &metrics.Series{Label: "lsm_reopen_s"} // x: records; mapwal then lsm
		for si, n := range sizes {
			s.Append(float64(n), mapRes[si].reopenS)
		}
		for si, n := range sizes {
			s.Append(float64(n), lsmRes[si].reopenS)
		}
		s.WriteCSV(os.Stdout)
		return nil
	}
	it := metrics.NewTable("engine ingest (20-write batches)", "10k_rps", "200k_rps")
	it.AddRow("mapwal (map + WAL replay)", mapRes[0].rps, mapRes[1].rps)
	it.AddRow("lsm (memtable + SSTables)", lsmRes[0].rps, lsmRes[1].rps)
	it.Render(os.Stdout)
	rt := metrics.NewTable("cold reopen", "10k_s", "200k_s")
	rt.AddRow("mapwal (full replay)", mapRes[0].reopenS, mapRes[1].reopenS)
	rt.AddRow("lsm (WAL tail only)", lsmRes[0].reopenS, lsmRes[1].reopenS)
	rt.Render(os.Stdout)
	fmt.Printf("\nreopen speedup at 200k records: %.1fx\n\n", reopenSpeedup)
	pt := metrics.NewTable("LSM point reads (200k records)", "us_per_op")
	pt.AddRow("hit", hitUS)
	pt.AddRow("miss, blooms on", missBloomUS)
	pt.AddRow("miss, blooms off", missNoBloomUS)
	pt.Render(os.Stdout)
	fmt.Printf("\nbloom speedup on negative reads: %.1fx\n", negSpeedup)
	return nil
}

// consensus reproduces the consensus/crypto hot-path ablation in three
// parts.
//
// Part A (micro): the same batch of signed envelopes is verified two
// ways — one ed25519.Verify call at a time (the pre-overhaul behaviour)
// and through msp.VerifyBatch (parallel fan-out with duplicate dedup).
//
// Part B (protocol): a 4-validator PBFT network with LAN-like latency
// decides a burst of payloads twice — in lockstep (execution blocks the
// event loop, the pre-overhaul behaviour) and with OverlapWindow=4 (the
// leader pre-prepares seq N+1 while N is in prepare/commit and execution
// runs on the async executor). Deliver carries a fixed per-decision cost
// emulating block validate+commit, which is what overlap hides.
//
// Part C (end to end): 4 concurrent sources — independent provenance
// chains, so consecutive envelopes are MVCC-independent — push pipelined
// ingest through one shared 4-peer LAN deployment, with consensus overlap
// off and on.
//
// Recorded metrics (consensus_verify_*_ops, consensus_round_*_rps,
// consensus_e2e_*_rps and the *_speedup_x ratios) feed the CI regression
// gate.
func (h *harness) consensus() error {
	h.header("Ablation — consensus/crypto hot path (batch verify, overlapped rounds)")

	// --- Part A: serial vs batch signature verification.
	const envelopes = 256
	signers := make([]*msp.Signer, 8)
	for i := range signers {
		s, err := msp.NewSigner("org", fmt.Sprintf("verify-%d", i), msp.RoleMember)
		if err != nil {
			return err
		}
		signers[i] = s
	}
	rng := sim.NewRNG(h.seed)
	items := make([]msp.VerifyItem, envelopes)
	for i := range items {
		s := signers[i%len(signers)]
		msg := rng.Bytes(256)
		items[i] = msp.VerifyItem{Identity: s.Identity, Message: msg, Signature: s.Sign(msg)}
	}
	passes := h.samples
	if passes < 5 {
		passes = 5
	}
	opsPerSec := func(verify func() error) (float64, error) {
		start := time.Now()
		for p := 0; p < passes; p++ {
			if err := verify(); err != nil {
				return 0, err
			}
		}
		return float64(passes*envelopes) / time.Since(start).Seconds(), nil
	}
	serialOps, err := opsPerSec(func() error {
		for _, it := range items {
			if !it.Identity.Verify(it.Message, it.Signature) {
				return fmt.Errorf("consensus: serial verify failed")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	batchOps, err := opsPerSec(func() error {
		if !msp.VerifyBatch(items) {
			return fmt.Errorf("consensus: batch verify failed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	h.record("consensus_verify_serial_ops", serialOps)
	h.record("consensus_verify_batch_ops", batchOps)
	h.record("consensus_verify_batch_speedup_x", batchOps/serialOps)

	// --- Part B: lockstep vs overlapped consensus rounds.
	const (
		roundTxs   = 48
		commitCost = 500 * time.Microsecond // stand-in for block validate+commit
	)
	roundRPS := func(overlap int) (float64, error) {
		const n = 4
		net := consensus.NewInProcNet(sim.LANLatency(sim.NewRNG(h.seed)), nil)
		ids := make([]string, n)
		vsigners := make([]*msp.Signer, n)
		idents := make(map[string]msp.Identity, n)
		for i := 0; i < n; i++ {
			ids[i] = fmt.Sprintf("v%d", i)
			s, err := msp.NewSigner("org", ids[i], msp.RoleMember)
			if err != nil {
				return 0, err
			}
			vsigners[i] = s
			idents[ids[i]] = s.Identity
		}
		var mu sync.Mutex
		counts := make(map[string]int, n)
		validators := make([]*consensus.Validator, n)
		for i := 0; i < n; i++ {
			id := ids[i]
			validators[i] = consensus.NewValidator(consensus.Config{
				ID:             id,
				Validators:     ids,
				Signer:         vsigners[i],
				Identities:     idents,
				Sender:         net,
				RequestTimeout: 2 * time.Second,
				OverlapWindow:  overlap,
				Deliver: func(seq uint64, payload []byte) {
					time.Sleep(commitCost)
					mu.Lock()
					counts[id]++
					mu.Unlock()
				},
			})
		}
		for _, v := range validators {
			v.Start()
		}
		defer func() {
			for _, v := range validators {
				v.Stop()
			}
		}()
		start := time.Now()
		for k := 0; k < roundTxs; k++ {
			validators[0].Propose([]byte(fmt.Sprintf("round-%03d", k)))
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			mu.Lock()
			done := true
			for _, id := range ids {
				if counts[id] < roundTxs {
					done = false
				}
			}
			mu.Unlock()
			if done {
				break
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("consensus: round burst did not finish (overlap=%d)", overlap)
			}
			time.Sleep(time.Millisecond)
		}
		return float64(roundTxs) / time.Since(start).Seconds(), nil
	}
	lockstepRPS, err := roundRPS(0)
	if err != nil {
		return err
	}
	overlapRPS, err := roundRPS(4)
	if err != nil {
		return err
	}
	h.record("consensus_round_lockstep_rps", lockstepRPS)
	h.record("consensus_round_overlap_rps", overlapRPS)
	h.record("consensus_round_overlap_speedup_x", overlapRPS/lockstepRPS)

	// --- Part C: multi-source e2e ingest, overlap off vs on.
	perSource := h.ingestRecords / 16
	if perSource < 100 {
		perSource = 100
	}
	const sources = 4
	e2e := func(overlap int) (float64, error) {
		frng := sim.NewRNG(h.seed)
		fw, err := core.New(core.Config{
			Fabric: fabric.Config{
				NumPeers: 4,
				Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
				Latency:  sim.LANLatency(frng),
			},
			IPFSNodes:        2,
			IPFSLatency:      sim.LANLatency(frng.Fork()),
			StorageEngine:    h.engine,
			Transport:        h.transport,
			ConsensusOverlap: overlap,
		})
		if err != nil {
			return 0, err
		}
		defer fw.Close()
		det := detect.NewDetector(h.seed)
		type job struct {
			pipe *ingest.Pipeline
			recs []ingest.Record
		}
		jobs := make([]job, sources)
		for s := 0; s < sources; s++ {
			cam, err := msp.NewSigner("city", fmt.Sprintf("consensus-cam-%d", s), msp.RoleTrustedSource)
			if err != nil {
				return 0, err
			}
			if err := fw.RegisterSource(cam.Identity, true); err != nil {
				return 0, err
			}
			client := fw.Client(cam, s%2) // spread sources over both IPFS nodes
			frameRNG := sim.NewRNG(h.seed + int64(100+s))
			recs := make([]ingest.Record, perSource)
			for i := range recs {
				frame, meta := frameOfSize(frameRNG, det, 4*1024, s*perSource+i)
				recs[i] = ingest.Record{Signed: msp.NewSignedMessage(cam, frame.Data), Meta: meta}
			}
			// BatchSize 10 (vs the ingest ablation's 100) shifts weight from
			// the add stage to consensus rounds — the stage overlap targets.
			jobs[s] = job{
				pipe: client.Pipeline(ingest.Config{
					Mode: ingest.ModePipelined, BatchSize: 10, AddWorkers: 4, MaxInFlight: 1,
					FlushInterval: 250 * time.Millisecond,
				}),
				recs: recs,
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, sources)
		start := time.Now()
		for s := range jobs {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for _, r := range jobs[s].pipe.Run(jobs[s].recs) {
					if r.Err != nil {
						errs[s] = fmt.Errorf("consensus e2e source %d record %d: %w", s, r.Index, r.Err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return float64(sources*perSource) / elapsed, nil
	}
	e2eLockstepRPS, err := e2e(0)
	if err != nil {
		return err
	}
	e2eOverlapRPS, err := e2e(4)
	if err != nil {
		return err
	}
	h.record("consensus_e2e_lockstep_rps", e2eLockstepRPS)
	h.record("consensus_e2e_overlap_rps", e2eOverlapRPS)
	h.record("consensus_e2e_overlap_speedup_x", e2eOverlapRPS/e2eLockstepRPS)

	if h.csv {
		verifyS := &metrics.Series{Label: "verify_ops"} // x: 0=serial 1=batch
		verifyS.Append(0, serialOps)
		verifyS.Append(1, batchOps)
		roundS := &metrics.Series{Label: "round_rps"} // x: overlap window
		roundS.Append(0, lockstepRPS)
		roundS.Append(4, overlapRPS)
		e2eS := &metrics.Series{Label: "e2e_rps"} // x: overlap window
		e2eS.Append(0, e2eLockstepRPS)
		e2eS.Append(4, e2eOverlapRPS)
		verifyS.WriteCSV(os.Stdout)
		roundS.WriteCSV(os.Stdout)
		e2eS.WriteCSV(os.Stdout)
		return nil
	}
	vt := metrics.NewTable(fmt.Sprintf("signature verification (%d envelopes)", envelopes), "ops_per_s", "speedup_vs_serial")
	vt.AddRow("serial (one ed25519.Verify at a time)", serialOps, 1.0)
	vt.AddRow("batch (msp.VerifyBatch)", batchOps, batchOps/serialOps)
	vt.Render(os.Stdout)
	fmt.Println()
	rt := metrics.NewTable(fmt.Sprintf("consensus rounds (n=4, LAN, %d decisions, %s commit cost)", roundTxs, commitCost), "decisions_per_s", "speedup")
	rt.AddRow("lockstep (window 0)", lockstepRPS, 1.0)
	rt.AddRow("overlapped (window 4)", overlapRPS, overlapRPS/lockstepRPS)
	rt.Render(os.Stdout)
	fmt.Println()
	et := metrics.NewTable(fmt.Sprintf("e2e ingest (%d sources x %d records)", sources, perSource), "records_per_s", "speedup")
	et.AddRow("consensus lockstep", e2eLockstepRPS, 1.0)
	et.AddRow("consensus overlap (window 4)", e2eOverlapRPS, e2eOverlapRPS/e2eLockstepRPS)
	et.Render(os.Stdout)
	return nil
}

// channelSourceName finds a camera name whose identity ("city/<name>")
// routes to the target channel under nch channels, so the channels
// ablation spreads its sources evenly instead of leaving shards idle.
func channelSourceName(s, target, nch int) string {
	for j := 0; ; j++ {
		name := fmt.Sprintf("shard-cam-%d-%d", s, j)
		if fabric.RouteKey("city/"+name, nch) == target {
			return name
		}
	}
}

// channels measures aggregate pipelined-ingest throughput as the ledger
// shards across 1, 2 and 4 channels. Four sources ingest concurrently;
// with N channels their home channels are spread evenly, so N independent
// ordering/consensus groups run their rounds at once. The workload is
// consensus-bound (LAN latency, one-envelope batches, small ingest
// batches), which is exactly what sharding scales: channels overlap their
// rounds' wall-clock waits, so the aggregate rate grows with the channel
// count even on a single core.
func (h *harness) channels() error {
	h.header("Ablation — multi-channel sharded ledger (aggregate pipelined ingest)")
	perSource := h.ingestRecords / 16
	if perSource < 50 {
		perSource = 50
	}
	const sources = 4
	run := func(nch int) (float64, error) {
		frng := sim.NewRNG(h.seed)
		fw, err := core.New(core.Config{
			Fabric: fabric.Config{
				NumPeers: 4,
				Cutter:   ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
				Latency:  sim.LANLatency(frng),
			},
			NumChannels:   nch,
			IPFSNodes:     2,
			IPFSLatency:   sim.LANLatency(frng.Fork()),
			StorageEngine: h.engine,
			Transport:     h.transport,
		})
		if err != nil {
			return 0, err
		}
		defer fw.Close()
		det := detect.NewDetector(h.seed)
		type job struct {
			pipe *ingest.Pipeline
			recs []ingest.Record
		}
		jobs := make([]job, sources)
		for s := 0; s < sources; s++ {
			cam, err := msp.NewSigner("city", channelSourceName(s, s%nch, nch), msp.RoleTrustedSource)
			if err != nil {
				return 0, err
			}
			if err := fw.RegisterSource(cam.Identity, true); err != nil {
				return 0, err
			}
			client := fw.Client(cam, s%2)
			frameRNG := sim.NewRNG(h.seed + int64(200+s))
			recs := make([]ingest.Record, perSource)
			for i := range recs {
				frame, meta := frameOfSize(frameRNG, det, 4*1024, s*perSource+i)
				recs[i] = ingest.Record{Signed: msp.NewSignedMessage(cam, frame.Data), Meta: meta}
			}
			jobs[s] = job{
				pipe: client.Pipeline(ingest.Config{
					Mode: ingest.ModePipelined, BatchSize: 10, AddWorkers: 4, MaxInFlight: 1,
					FlushInterval: 250 * time.Millisecond,
				}),
				recs: recs,
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, sources)
		start := time.Now()
		for s := range jobs {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for _, r := range jobs[s].pipe.Run(jobs[s].recs) {
					if r.Err != nil {
						errs[s] = fmt.Errorf("channels source %d record %d: %w", s, r.Index, r.Err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return float64(sources*perSource) / elapsed, nil
	}
	counts := []int{1, 2, 4}
	rps := make([]float64, len(counts))
	for i, nch := range counts {
		r, err := run(nch)
		if err != nil {
			return err
		}
		rps[i] = r
		h.record(fmt.Sprintf("channels_ingest_%dch_rps", nch), r)
	}
	h.record("channels_scaling_2ch_x", rps[1]/rps[0])
	h.record("channels_scaling_4ch_x", rps[2]/rps[0])

	if h.csv {
		s := &metrics.Series{Label: "channels_rps"} // x: channel count
		for i, nch := range counts {
			s.Append(float64(nch), rps[i])
		}
		s.WriteCSV(os.Stdout)
		return nil
	}
	tbl := metrics.NewTable(fmt.Sprintf("channel sharding (%d sources x %d records, LAN)", sources, perSource), "records_per_s", "speedup_vs_1ch")
	for i, nch := range counts {
		tbl.AddRow(fmt.Sprintf("%d channel(s)", nch), rps[i], rps[i]/rps[0])
	}
	tbl.Render(os.Stdout)
	return nil
}

// storage compares the world-state engines directly: sequential and
// parallel mixed read/commit throughput over a seeded statedb, the
// microbenchmark behind the internal/storage engine choice. Parallel rows
// only separate the engines on multi-core hosts; see EXPERIMENTS.md.
func (h *harness) storage() error {
	h.header("Ablation — world-state storage engine (single-lock vs sharded)")
	const (
		keys        = 10000
		commitEvery = 16
	)
	recKeys := make([]string, keys)
	for i := range recKeys {
		recKeys[i] = fmt.Sprintf("rec/%06d", i)
	}
	seedDB := func(cfg storage.Config) *statedb.DB {
		db, err := statedb.NewWith(cfg)
		if err != nil {
			log.Fatalf("open statedb: %v", err)
		}
		batch := statedb.NewUpdateBatch()
		for i, k := range recKeys {
			batch.Put("data", k, []byte(fmt.Sprintf(`{"label":"car","idx":%d}`, i)))
		}
		db.ApplyUpdates(batch, statedb.Version{BlockNum: 1})
		return db
	}
	mixed := func(db *statedb.DB, workers, opsPerWorker int) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < opsPerWorker; i++ {
					if i%commitEvery == commitEvery-1 {
						batch := statedb.NewUpdateBatch()
						for j := 0; j < 10; j++ {
							batch.Put("data", recKeys[(w*opsPerWorker+i*10+j)%keys], []byte(`{"label":"car"}`))
						}
						db.ApplyUpdates(batch, statedb.Version{BlockNum: uint64(i)})
					} else {
						db.GetState("data", recKeys[(w*31+i*17)%keys])
					}
				}
			}(w)
		}
		wg.Wait()
		total := float64(workers * opsPerWorker)
		return total / time.Since(start).Seconds()
	}
	ops := 40000 * h.samples / 20
	tbl := metrics.NewTable("engine", "workers", "mixed_ops_per_s")
	for _, eng := range []storage.Engine{storage.EngineSingle, storage.EngineSharded} {
		for _, workers := range []int{1, 4, 16} {
			db := seedDB(storage.Config{Engine: eng})
			tbl.AddRow(string(eng), workers, mixed(db, workers, ops/workers))
		}
	}
	tbl.Render(os.Stdout)
	return nil
}
