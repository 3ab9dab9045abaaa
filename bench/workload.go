package main

import (
	"math"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/core"
	"socialchain/internal/fabric"
	"socialchain/internal/ingest"
	"socialchain/internal/obs"
	"socialchain/internal/ordering"
	"socialchain/internal/sim"
	"socialchain/internal/storage"
)

// spec is one workload. Counts are per round at -scale 1.
type spec struct {
	name    string
	payload int // bytes per record
	preload int // records stored during set-up, through ingest.Pipeline
	labels  int // distinct primary labels, cycled so every label fills a 100-record page
	// stores, retrieves and queries are the operations of one round. In the
	// open-loop workload they are issued together over roundSeconds, which
	// fixes the offered rates; elsewhere they run as three closed-loop
	// segments.
	stores, retrieves, queries int
	readerNode                 int  // IPFS node the reader is attached to (the writer is on node 0)
	bulk                       bool // stores go through ingest.Pipeline, one Run per round
	tcp                        bool // consensus over transport.TCP, open-loop generators
	verifySample               int  // acknowledged records re-read after each reopen
	// restarts is how many times the closed deployment is reopened, and how
	// many readings each heap figure is the mean of; one more record is
	// stored and read back between two readings, so they see consecutive
	// states. A memtable grows until it is flushed, so a heap read at a
	// single state reports how full the memtables happened to be. At 4 KiB
	// a record they fill once in a thousand records and a fixed record count
	// ends every run at the same fill. At 1 MiB the off-chain stores' 4 MiB
	// memtables (storage.DefaultMemtableBytes) fill every four records, on
	// two nodes whose fills drift apart with the order concurrent adds
	// land in: four consecutive states are one whole cycle of both, and
	// their mean does not depend on where in the cycle the run ended.
	restarts int
	// roundSeconds is the timed part of one round on the reference box
	// (input generation and the forced collections between segments are
	// not timed); -seconds divided by it gives the round count, so the
	// same -seconds always measures the same operations. In the open-loop
	// workload it is the length of a round exactly.
	roundSeconds float64
}

var specs = []spec{
	{name: "small-serial", payload: 4 << 10, preload: 1000, labels: 7,
		stores: 250, retrieves: 6000, queries: 150, verifySample: 500, restarts: 3, roundSeconds: 3.3},
	{name: "large-serial", payload: 1 << 20, preload: 200, labels: 2,
		stores: 100, retrieves: 300, queries: 150, readerNode: 1, verifySample: 100, restarts: 4, roundSeconds: 2.8},
	{name: "bulk-ingest", payload: 4 << 10, preload: 1000, labels: 7,
		stores: 2000, retrieves: 6000, queries: 150, bulk: true, verifySample: 500, restarts: 3, roundSeconds: 4.3},
	{name: "serve-mixed-tcp", payload: 4 << 10, preload: 1000, labels: 7,
		stores: 200, retrieves: 2000, queries: 100, tcp: true, verifySample: 500, restarts: 3, roundSeconds: 5},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload for smoke tests: every count is multiplied by
// f (never below 2 stores, 4 retrieves, 2 queries, one record per label)
// and the deployment is restarted once.
// Percentile sample floors shrink with it, so a scaled run's numbers are
// for checking the plumbing, not for quoting.
func (s spec) scaled(f float64) spec {
	if f >= 1 {
		return s
	}
	n := func(v, floor int) int { return int(math.Max(float64(floor), math.Round(float64(v)*f))) }
	s.preload = n(s.preload, 2*s.labels)
	s.stores = n(s.stores, 2)
	s.retrieves = n(s.retrieves, 4)
	s.queries = n(s.queries, 2)
	s.verifySample = n(s.verifySample, 4)
	s.restarts = 1
	s.roundSeconds *= f
	return s
}

// rounds turns the measuring time into a round count.
func (s spec) rounds(seconds float64) int {
	r := int(math.Round(seconds / s.roundSeconds))
	if r < 2 {
		r = 2
	}
	return r
}

// pageLimit is the page size of every conditional query.
const pageLimit = 100

// pipelineCfg is the ingest pipeline every preload and every bulk-ingest
// round runs: one batch in flight because a single source's envelopes
// chain through its provenance head (a second would only buy MVCC
// retries), two add workers because the box has two cores.
var pipelineCfg = ingest.Config{Mode: ingest.ModePipelined, BatchSize: 100, AddWorkers: 2, MaxInFlight: 1}

// deployConfig is the deployment every workload runs against; only the
// consensus transport differs. reg is nil except in a traced run.
func deployConfig(dir string, tcp bool, reg *obs.Registry) core.Config {
	cfg := core.Config{
		Fabric: fabric.Config{
			NumPeers:     4,
			NumChannels:  1,
			Cutter:       ordering.CutterConfig{MaxMessages: 1, BatchTimeout: 2 * time.Millisecond},
			Latency:      sim.ZeroLatency{},
			StateIndexes: contracts.DataIndexes(),
			IdentitySeed: "bench",
			Obs:          reg,
		},
		IPFSNodes:         2,
		IPFSLatency:       sim.ZeroLatency{},
		StorageEngine:     storage.EnginePersist,
		StorageDurability: storage.DurabilityNone,
		DataDir:           dir,
	}
	if tcp {
		cfg.Transport = "tcp"
	}
	return cfg
}

// metric names one reported number.
type metric struct {
	name, unit string
}

// endToEnd lists the gated metrics, in the order BENCHMARK.json has them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"reopen_heap_mb", "MB"},
	{"chain_bytes_per_record", "B"},
	{"disk_bytes_per_payload_byte", "B/B"},
	{"live_heap_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// ungated lists the end-to-end figures that did not repeat within a tenth
// on some workload (README, Calibration). Every run measures them like the
// gated ones; an untraced run prints them, a traced run reports them with
// the per-layer metrics under "ungated.".
var ungated = []metric{
	{"store_p50_ms", "ms"},
	{"store_p95_ms", "ms"},
	{"store_rps", "1/s"},
	{"retrieve_p50_ms", "ms"},
	{"retrieve_p95_ms", "ms"},
	{"retrieve_rps", "1/s"},
	{"query_p50_ms", "ms"},
	{"reopen_s", "s"},
}

// perLayer lists the traced run's metrics: the layers' own, then the
// ungated end-to-end figures.
var perLayer = func() []metric {
	out := append([]metric(nil), layers...)
	for _, m := range ungated {
		out = append(out, metric{"ungated." + m.name, m.unit})
	}
	return out
}()

// layers lists the per-layer metrics proper. A layer a workload does not
// exercise reports 0 (transport.* without TCP, ingest.* without the
// pipeline).
var layers = []metric{
	{"core.store_verify_us", "us"},
	{"core.store_validate_ms", "ms"},
	{"core.store_ipfs_add_ms", "ms"},
	{"core.store_submit_ms", "ms"},
	{"core.retrieve_chain_ms", "ms"},
	{"core.retrieve_ipfs_ms", "ms"},
	{"core.retrieve_verify_ms", "ms"},
	{"core.boot_ms", "ms"},
	{"fabric.endorse_ms", "ms"},
	{"fabric.order_ms", "ms"},
	{"fabric.commit_wait_ms", "ms"},
	{"fabric.unaccounted_ms", "ms"},
	{"fabric.retry_txs_per_1k", "count"},
	{"peer.endorse_exec_ms", "ms"},
	{"peer.validate_ms", "ms"},
	{"peer.commit_ms", "ms"},
	{"peer.open_ms", "ms"},
	{"consensus.decide_ms", "ms"},
	{"consensus.view_changes", "count"},
	{"ordering.txs_per_block", "count"},
	{"msp.sign_us", "us"},
	{"msp.verify_us", "us"},
	{"msp.verify_cache_hit_ratio", "ratio"},
	{"ledger.log_append_us", "us"},
	{"ledger.log_open_ms", "ms"},
	{"ledger.get_tx_us", "us"},
	{"ledger.block_bytes_per_tx", "B"},
	{"statedb.get_state_us", "us"},
	{"statedb.index_page_ms", "ms"},
	{"storage.open_ms", "ms"},
	{"storage.flushes", "count"},
	{"storage.compactions", "count"},
	{"storage.compacted_bytes_per_record", "B"},
	{"storage.stall_waits", "count"},
	{"storage.wal_fsyncs", "count"},
	{"storage.sstables_end", "count"},
	{"storage.bloom_skip_ratio", "ratio"},
	{"storage.block_reads_per_retrieve", "count"},
	{"query.metadata_ms", "ms"},
	{"query.get_many_ms_per_item", "ms"},
	{"chunker.mb_per_s", "MB/s"},
	{"blockstore.blocks_per_record", "count"},
	{"blockstore.bytes_per_payload_byte", "B/B"},
	{"ipfs.get_local_ms", "ms"},
	{"ipfs.get_remote_first_ms", "ms"},
	{"ipfs.get_remote_repeat_ms", "ms"},
	{"ipfs.reopen_ms", "ms"},
	{"bitswap.blocks_per_retrieve", "count"},
	{"bitswap.bytes_per_retrieve", "B"},
	{"ingest.records_per_batch", "count"},
	{"ingest.conflict_retries", "count"},
	{"transport.bytes_per_record", "B"},
	{"transport.frames_per_record", "count"},
	{"transport.frame_codec_us", "us"},
	{"transport.reconnects", "count"},
	{"transport.drops", "count"},
	{"runtime.alloc_mb_per_record", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.goroutines_end", "count"},
	{"harness.generator_late_p95_ms", "ms"},
	{"harness.traced_store_rps", "1/s"},
	{"harness.store_span_coverage_pct", "%"},
	{"harness.retrieve_span_coverage_pct", "%"},
}
