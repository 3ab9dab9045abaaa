// Command trafficgen generates the synthetic IUDX-style traffic corpus the
// evaluation uses (52 static-camera videos + drone flights) and reports its
// statistics, optionally dumping extracted metadata records as JSON lines.
//
// With -ingest it becomes the end-to-end ingest driver: it boots a full
// in-process framework (peers + BFT ordering + IPFS), registers a trusted
// camera and pushes -records frames through the internal/ingest pipeline
// in the selected mode (serial, batched, pipelined). -rate 0 runs closed
// loop (submit as fast as pipeline backpressure allows); -rate N runs open
// loop at N records/s, reporting offered vs achieved throughput. This is
// the e2e smoke CI runs on every PR.
//
// With -connect it instead drives an OUT-OF-PROCESS deployment
// (socialchaind -role peer processes) over transport.TCP: it bootstraps
// the chain (admin, trust parameters, camera), submits -records metadata
// transactions through remote gateways — each to the peer process it then
// waits on for the commit, round robin — and verifies
// every peer process's hash chain over RPC. -peers must match the
// deployment's flag. -stats-out FILE writes a JSON run summary on exit:
// counts, throughput, client-side stage latency percentiles (endorse /
// order / commit_wait, read from the gateway histograms, keyed by the
// channel name) and — with -admin-book id=host:port,... — every listed
// node's /statusz snapshot.
//
// Usage: trafficgen [-videos 52] [-frames 20] [-drones 12] [-seed 1]
// [-dump-metadata] [-limit 5]
// [-ingest serial|batched|pipelined] [-records 200] [-rate 0]
// [-concurrency 8] [-batch 32] [-inflight 2] [-peers 4]
// [-durability none|batch|always] [-data-dir DIR]
// [-connect id=host:port,...]
// [-stats-out FILE] [-admin-book id=host:port,...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"socialchain/internal/dataset"
	"socialchain/internal/detect"
	"socialchain/internal/metrics"
)

func main() {
	videos := flag.Int("videos", 52, "static-camera videos")
	frames := flag.Int("frames", 20, "frames per video")
	drones := flag.Int("drones", 12, "drone flights")
	seed := flag.Int64("seed", 1, "corpus seed")
	dump := flag.Bool("dump-metadata", false, "emit extracted metadata records as JSON lines")
	limit := flag.Int("limit", 5, "max records to dump (0 = all)")
	ingestMode := flag.String("ingest", "", "drive the e2e ingest pipeline: serial, batched or pipelined")
	records := flag.Int("records", 200, "records to ingest (with -ingest)")
	rate := flag.Float64("rate", 0, "open-loop offered load in records/s (0 = closed loop)")
	concurrency := flag.Int("concurrency", 8, "ingest chunk+IPFS-add workers")
	batch := flag.Int("batch", 32, "records per batched envelope")
	// Default 1: trafficgen drives a single source, whose envelopes chain
	// through the provenance head — a wider window only burns consensus
	// rounds on MVCC conflicts (see DESIGN.md).
	inflight := flag.Int("inflight", 1, "batches in flight")
	peers := flag.Int("peers", 4, "blockchain peers (with -ingest or -connect)")
	durability := flag.String("durability", "", "front-log fsync policy with -data-dir (the block logs the state engines replay): none, batch or always")
	dataDir := flag.String("data-dir", "", "persist peers, block logs and IPFS stores under this directory; a restarted -ingest run resumes from it")
	readFrac := flag.Float64("read-frac", 0, "fraction of operations that are reads (with -connect): half probe stored records, half probe absent keys (the bloom-filter negative path); 0 = write-only")
	connect := flag.String("connect", "", "drive an out-of-process deployment: comma-separated id=host:port book of its peer processes")
	identitySeed := flag.String("identity-seed", "trafficgen", "derive client identities from this seed (with -connect); reruns against one deployment must reuse it")
	statsOut := flag.String("stats-out", "", "write a JSON run summary (client-side per-stage latency percentiles + scraped /statusz) to this file on exit (with -connect)")
	adminBook := flag.String("admin-book", "", "comma-separated id=host:port book of the deployment's admin surfaces, scraped into -stats-out")
	flag.Parse()

	if *readFrac < 0 || *readFrac >= 1 {
		log.Fatalf("-read-frac %v out of range [0, 1)", *readFrac)
	}

	if *connect != "" {
		if err := runConnect(connectConfig{
			peers:        *connect,
			numPeers:     *peers,
			records:      *records,
			readFrac:     *readFrac,
			seed:         *seed,
			identitySeed: *identitySeed,
			statsOut:     *statsOut,
			adminBook:    *adminBook,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *ingestMode != "" {
		if err := runIngest(ingestConfig{
			mode:        *ingestMode,
			records:     *records,
			rate:        *rate,
			concurrency: *concurrency,
			batch:       *batch,
			inflight:    *inflight,
			peers:       *peers,
			durability:  *durability,
			dataDir:     *dataDir,
			seed:        *seed,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	corpus := dataset.Generate(dataset.Config{
		Seed:            *seed,
		NumVideos:       *videos,
		FramesPerVideo:  *frames,
		NumDroneFlights: *drones,
		FramesPerFlight: *frames,
	})
	det := detect.NewDetector(*seed)

	sizeStats := metrics.NewStats()
	staticConf := metrics.NewStats()
	droneConf := metrics.NewStats()
	detections := 0
	dumped := 0
	var totalBytes uint64
	for _, f := range corpus.AllFrames() {
		sizeStats.Add(float64(f.SizeBytes()) / 1024)
		totalBytes += uint64(f.SizeBytes())
		rec, _ := det.ExtractMetadata(f)
		detections += len(rec.Detections)
		for _, d := range rec.Detections {
			if f.Platform == detect.PlatformDrone {
				droneConf.Add(d.Confidence)
			} else {
				staticConf.Add(d.Confidence)
			}
		}
		if *dump && (*limit == 0 || dumped < *limit) {
			b, err := json.Marshal(rec)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(string(b))
			dumped++
		}
	}
	if *dump {
		return
	}
	fmt.Printf("corpus: %d static videos, %d drone flights, %d frames, %.1f MiB total\n",
		len(corpus.Static), len(corpus.Drone), len(corpus.AllFrames()), float64(totalBytes)/(1<<20))
	fmt.Printf("frame size (KiB): %s\n", sizeStats.Summary())
	fmt.Printf("detections: %d\n", detections)
	fmt.Printf("static confidence: %s\n", staticConf.Summary())
	fmt.Printf("drone  confidence: %s\n", droneConf.Summary())

	tbl := metrics.NewTable("video", "camera", "platform", "frames", "first_frame_kb")
	max := 8
	for i, v := range corpus.Static {
		if i >= max {
			break
		}
		tbl.AddRow(v.ID, v.Camera.ID, "static", len(v.Frames), float64(v.Frames[0].SizeBytes())/1024)
	}
	for i, v := range corpus.Drone {
		if i >= 4 {
			break
		}
		tbl.AddRow(v.ID, v.Camera.ID, "drone", len(v.Frames), float64(v.Frames[0].SizeBytes())/1024)
	}
	fmt.Println()
	tbl.Render(os.Stdout)
}
