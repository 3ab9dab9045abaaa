// Command socialchaind runs a complete framework deployment — permissioned
// blockchain peers, BFT ordering, IPFS cluster, deployed chaincodes — and
// drives it with a simulated smart-city workload: trusted cameras and
// drones plus crowd-sourced mobile users submitting traffic observations.
// It prints live chain/trust/storage statistics, serving as the demo
// daemon for the framework.
//
// With -bulk N it appends a bulk-ingest phase: N additional camera frames
// stream through the internal/ingest pipeline (batched endorsement +
// overlapped commit) and the daemon reports the achieved write
// throughput beside the round-based statistics.
//
// With -data-dir DIR the deployment is durable: peers keep their world
// state and a block log, which is its write-ahead log, under DIR, and the
// IPFS cluster's blockstores persist beside them. Kill the process, run
// it again with the same -data-dir, and it resumes from the recovered
// chain instead of starting empty.
//
// The deployment runs one channel, the paper's traffic-channel: every
// source's data, trust state and provenance live on it.
//
// With -role peer the binary instead runs ONE peer process of a networked
// deployment over transport.TCP: the process hosts the channel's endorsing
// peer, its consensus validator and its own transaction cutter
// (-batch-timeout, -max-messages), and remote clients (trafficgen
// -connect) submit to any peer process over framed localhost sockets.
// There is no separate ordering process: consensus relays every request to
// every validator. Every process must share the same
// -peers/-identity-seed so seed-derived identities line up. -join lists
// the other processes' addresses.
//
// With -admin HOST:PORT either mode (demo or peer) additionally
// serves the admin/debug HTTP surface: /metrics (Prometheus text
// exposition), /healthz (liveness: stalled consensus, connectivity
// floor), /statusz (JSON snapshot: heights, backlogs, cache hit rates,
// transport queues, slow-trace ring) and /debug/pprof. Off when the flag
// is absent.
//
// Usage: socialchaind [-peers 4] [-ipfs 2] [-cameras 3]
// [-crowd 3] [-rounds 10] [-byzantine 0] [-bad-crowd-fraction 0.3]
// [-bulk 0] [-bulk-mode pipelined] [-bulk-batch 32] [-bulk-workers 8]
// [-data-dir DIR] [-admin HOST:PORT]
// [-role peer -index N -listen HOST:PORT -join id=HOST:PORT,...
// -identity-seed SEED [-batch-timeout 10ms] [-max-messages 4]]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"socialchain/internal/consensus"
	"socialchain/internal/contracts"
	"socialchain/internal/core"
	"socialchain/internal/dataset"
	"socialchain/internal/detect"
	"socialchain/internal/explorer"
	"socialchain/internal/fabric"
	"socialchain/internal/ingest"
	"socialchain/internal/ledger"
	"socialchain/internal/metrics"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/ordering"
	"socialchain/internal/sim"
	"socialchain/internal/storage"
)

func main() {
	peers := flag.Int("peers", 4, "number of blockchain peers")
	ipfsNodes := flag.Int("ipfs", 2, "number of IPFS nodes")
	cameras := flag.Int("cameras", 3, "trusted camera sources")
	crowd := flag.Int("crowd", 3, "untrusted crowd sources")
	rounds := flag.Int("rounds", 10, "submission rounds")
	byzantine := flag.Int("byzantine", 0, "silent byzantine validators")
	badFraction := flag.Float64("bad-crowd-fraction", 0.3, "fraction of crowd submissions that are corrupt")
	seed := flag.Int64("seed", 1, "workload seed")
	bulk := flag.Int("bulk", 0, "bulk-ingest this many extra camera frames through the pipelined write path")
	bulkMode := flag.String("bulk-mode", "pipelined", "bulk ingest mode: serial, batched or pipelined")
	bulkBatch := flag.Int("bulk-batch", 32, "records per bulk-ingest envelope")
	bulkWorkers := flag.Int("bulk-workers", 8, "bulk-ingest IPFS-add workers")
	dataDir := flag.String("data-dir", "", "persist peers, block logs and IPFS stores under this directory; a restart resumes from it")
	durability := flag.String("durability", "", "front-log fsync policy with -data-dir (the block logs the state engines replay): none (page cache and engine flushes), batch (a timer fsync within 5 ms of an append) or always (each block fsynced before its state batch)")
	role := flag.String("role", "", "run one process of a networked deployment: peer (empty = in-process demo)")
	index := flag.Int("index", 0, "peer index within the deployment (with -role peer)")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address (with -role)")
	join := flag.String("join", "", "comma-separated id=host:port book of the other processes (with -role)")
	identitySeed := flag.String("identity-seed", "", "deterministic identity seed shared by every process of one deployment (with -role)")
	batchTimeout := flag.Duration("batch-timeout", 10*time.Millisecond, "the peer's ordering batch timeout (with -role)")
	maxMessages := flag.Int("max-messages", 4, "the peer's ordering batch size cap (with -role)")
	admin := flag.String("admin", "", "serve the admin/debug HTTP surface (/metrics, /healthz, /statusz, /debug/pprof) on this address, e.g. :7190 (off when empty)")
	flag.Parse()

	dur, err := storage.ParseDurability(*durability)
	if err != nil {
		log.Fatal(err)
	}

	if *role != "" {
		if err := runDaemon(daemonConfig{
			role:         *role,
			index:        *index,
			listen:       *listen,
			join:         *join,
			peers:        *peers,
			identitySeed: *identitySeed,
			dataDir:      *dataDir,
			durability:   dur,
			batchTimeout: *batchTimeout,
			maxMessages:  *maxMessages,
			admin:        *admin,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	if err := run(*peers, *ipfsNodes, *cameras, *crowd, *rounds, *byzantine, *badFraction, *seed,
		bulkConfig{records: *bulk, mode: *bulkMode, batch: *bulkBatch, workers: *bulkWorkers}, *dataDir, dur, *admin); err != nil {
		log.Fatal(err)
	}
}

type bulkConfig struct {
	records int
	mode    string
	batch   int
	workers int
}

func run(peers, ipfsNodes, cameras, crowd, rounds, byzantine int, badFraction float64, seed int64, bulk bulkConfig, dataDir string, durability storage.Durability, adminAddr string) error {
	behaviors := map[int]consensus.Behavior{}
	for i := 0; i < byzantine; i++ {
		behaviors[i+1] = consensus.Silent{}
	}
	reg := obs.NewRegistry()
	fw, err := core.New(core.Config{
		Fabric: fabric.Config{
			NumPeers:         peers,
			Cutter:           ordering.CutterConfig{MaxMessages: 4, BatchTimeout: 10 * time.Millisecond},
			Behaviors:        behaviors,
			ConsensusTimeout: time.Second,
			Obs:              reg,
		},
		IPFSNodes:         ipfsNodes,
		DataDir:           dataDir,
		StorageDurability: durability,
	})
	if err != nil {
		return err
	}
	defer fw.Close()

	ch := fw.Net.ChannelAt(0)
	if adminAddr != "" {
		health := obs.NewHealth(0, nil)
		health.Register(ch.Name(), obs.Probe{
			Height:  ch.Peer(0).Height,
			Backlog: ch.Validator(0).Backlog,
		})
		statusz := func() any {
			return struct {
				Ledger ledger.Stats `json:"ledger"`
			}{fw.LedgerStats()}
		}
		adminSrv, err := obs.ServeAdmin(adminAddr, reg, health, statusz)
		if err != nil {
			return err
		}
		defer adminSrv.Close()
		fmt.Printf("admin surface on http://%s (/metrics /healthz /statusz /debug/pprof)\n", adminSrv.Addr())
	}
	fmt.Printf("network up: %s, %d peers (%d byzantine), %d IPFS nodes, chaincodes deployed\n",
		ch.Name(), peers, byzantine, ipfsNodes)
	if dataDir != "" {
		boot := fw.LedgerStats()
		fmt.Printf("durable deployment at %s: recovered chain height %d (%d txs)\n",
			dataDir, boot.Height, boot.TotalTxs)
	}

	rng := sim.NewRNG(seed)
	det := detect.NewDetector(seed)
	corpus := dataset.Generate(dataset.Config{
		Seed: seed, NumVideos: cameras, FramesPerVideo: rounds,
		NumDroneFlights: 1, FramesPerFlight: rounds, MeanFrameKB: 24,
	})

	type source struct {
		client *core.Client
		signer *msp.Signer
		video  *dataset.Video
		bad    bool
	}
	var sources []source
	for i := 0; i < cameras; i++ {
		s, err := msp.NewSigner("city", fmt.Sprintf("cam-%03d", i), msp.RoleTrustedSource)
		if err != nil {
			return err
		}
		if err := fw.RegisterSource(s.Identity, true); err != nil {
			return err
		}
		sources = append(sources, source{client: fw.Client(s, i%ipfsNodes), signer: s, video: &corpus.Static[i]})
	}
	for i := 0; i < crowd; i++ {
		s, err := msp.NewSigner("crowd", fmt.Sprintf("mobile-%03d", i), msp.RoleUntrustedSource)
		if err != nil {
			return err
		}
		if err := fw.RegisterSource(s.Identity, false); err != nil {
			return err
		}
		sources = append(sources, source{client: fw.Client(s, i%ipfsNodes), signer: s, video: &corpus.Static[i%cameras]})
	}
	fmt.Printf("registered %d trusted + %d untrusted sources\n\n", cameras, crowd)

	storeLat := metrics.NewStats()
	stored, rejected := 0, 0
	for round := 0; round < rounds; round++ {
		for _, src := range sources {
			frame := src.video.Frames[round%len(src.video.Frames)]
			meta, _ := det.ExtractMetadata(&frame)
			isCrowd := src.signer.Identity.Role == msp.RoleUntrustedSource
			if isCrowd && rng.Float64() < badFraction {
				meta.DataHash = strings.Repeat("0", 64) // corrupt submission
			}
			start := time.Now()
			_, err := src.client.StoreFrame(&frame, meta)
			if err != nil {
				rejected++
				continue
			}
			storeLat.AddDuration(time.Since(start))
			stored++
		}
		stats := fw.LedgerStats()
		fmt.Printf("round %2d: height=%d txs=%d valid=%d stored=%d rejected=%d\n",
			round+1, stats.Height, stats.TotalTxs, stats.ValidTxs, stored, rejected)
	}

	if bulk.records > 0 {
		if !ingest.Mode(bulk.mode).Valid() {
			return fmt.Errorf("unknown -bulk-mode %q (valid: serial, batched, pipelined)", bulk.mode)
		}
		fmt.Printf("\n--- bulk ingest (%d records, %s) ---\n", bulk.records, bulk.mode)
		camSrc := sources[0]
		frames := make([]*detect.Frame, bulk.records)
		metas := make([]detect.MetadataRecord, bulk.records)
		for i := range frames {
			f := camSrc.video.Frames[i%len(camSrc.video.Frames)]
			frames[i] = &f
			metas[i], _ = det.ExtractMetadata(&f)
		}
		pipe := camSrc.client.Pipeline(ingest.Config{
			Mode:       ingest.Mode(bulk.mode),
			BatchSize:  bulk.batch,
			AddWorkers: bulk.workers,
		})
		records := make([]ingest.Record, len(frames))
		for i, f := range frames {
			records[i] = ingest.Record{Signed: msp.NewSignedMessage(camSrc.signer, f.Data), Meta: metas[i]}
		}
		results := pipe.Run(records)
		bulkStats := pipe.Stats()
		bulkFailed := 0
		for _, r := range results {
			if r.Err != nil {
				bulkFailed++
			}
		}
		fmt.Printf("bulk: %d/%d records in %.3fs (%.1f records/s, %d batches, %d conflict retries, %d failed)\n",
			bulkStats.Stored, bulkStats.Submitted, bulkStats.Elapsed.Seconds(),
			bulkStats.Throughput(), bulkStats.Batches, bulkStats.ConflictRetries, bulkFailed)
		stored += bulkStats.Stored
		rejected += bulkFailed
	}

	fmt.Println("\n--- final state ---")
	stats := fw.LedgerStats()
	fmt.Printf("chain height %d, %d txs (%d valid)\n", stats.Height, stats.TotalTxs, stats.ValidTxs)
	fmt.Printf("store latency: %s\n", storeLat.Summary())
	if err := ch.Peer(0).Ledger().VerifyChain(); err != nil {
		return fmt.Errorf("chain verification failed: %w", err)
	}
	fmt.Println("hash chain verified on peer 0")

	tbl := metrics.NewTable("source", "role", "score", "accepted", "rejected", "flagged")
	for _, src := range sources {
		st, err := fw.TrustScore(src.signer.Identity.ID())
		if err != nil {
			continue
		}
		tbl.AddRow(st.SourceID, string(src.signer.Identity.Role), st.Score, st.Accepted, st.Rejected, st.Flagged)
	}
	fmt.Println()
	tbl.Render(os.Stdout)

	for i := 0; i < ipfsNodes; i++ {
		node := fw.Cluster.Node(i)
		fmt.Printf("ipfs node %d: %d blocks, %d bytes\n", i, node.Blockstore().Len(), node.Blockstore().SizeBytes())
	}

	// Explorer view of the chain (the paper's Hyperledger Explorer role).
	fmt.Println("\n--- explorer ---")
	exp := explorer.New(ch.Peer(0).Ledger()).WithState(ch.Peer(0).State())
	exp.RenderStats(os.Stdout)
	fmt.Println("\nlast blocks:")
	height := ch.Peer(0).Ledger().Height()
	from := uint64(0)
	if height > 6 {
		from = height - 6
	}
	if err := exp.RenderBlocks(os.Stdout, from, 0); err != nil {
		return err
	}
	// Newest records through the time-ordered secondary index, paged.
	fmt.Println("\nrecent records (submitted index):")
	if _, err := exp.RenderIndexPage(os.Stdout, contracts.IndexSubmitted, "", 8, ""); err != nil {
		return err
	}
	return nil
}
