package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/chunker"
	"socialchain/internal/cid"
	"socialchain/internal/contracts"
	"socialchain/internal/ingest"
	"socialchain/internal/ipfs"
	"socialchain/internal/ledger"
	"socialchain/internal/metrics"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/peer"
	"socialchain/internal/storage"
	"socialchain/internal/transport"
)

// The per-layer numbers come from three places, all outside the program:
// spans the harness records around its own calls (trace.go), counters and
// histograms the layers already export, read as deltas over the timed
// window or over one kind of segment, and replays of the run's own data
// through leaf layers once the rounds are over.

// Counter slots. Histograms take two: observations and summed seconds.
const (
	cHeight  = iota // blocks on peer 0
	cTxs            // transactions committed on peer 0, valid or not
	cInvalid        // of those, not VALID (MVCC losers the gateway re-endorsed)
	cEndorseN
	cEndorseS
	cOrderN
	cOrderS
	cWaitN
	cWaitS
	cExecN
	cExecS
	cValidateN
	cValidateS
	cCommitN
	cCommitS
	cDecideN
	cDecideS
	cCacheHit
	cCacheMiss
	cFlushes
	cCompactions
	cCompactedBytes
	cStalls
	cFsyncs
	cBloomChecks
	cBloomSkips
	cBlockReads
	cSwapBlocks // bitswap blocks the reader's node received
	cSwapBytes
	cWireBytes
	cWireFrames
	cReconnects
	cDrops
	cViewChanges
	cAllocBytes
	cGCs
	cPauseNs
	cStoreBlocks // blocks in the writer node's blockstore
	cSSTables    // live SSTables under every peer's state and history (a gauge)
	nCounters
)

type counters [nCounters]float64

func (c *counters) addDelta(after, before *counters) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// mean is summed seconds over observations of a histogram pair, in ms.
func (c *counters) meanMS(n, s int) float64 {
	if c[n] == 0 {
		return 0
	}
	return 1000 * c[s] / c[n]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerState accumulates the traced run's per-layer evidence. Every
// method is a no-op in an untraced run.
type layerState struct {
	gwHists   [3]*obs.Histogram   // endorse, order, commit_wait on the channel
	peerHists [][4]*obs.Histogram // per peer: endorse_exec, validate, commit, consensus_decide
	txValid   *metrics.Counter
	txInvalid *metrics.Counter

	window, store, retrieve counters // deltas: whole timed window, store segments, retrieve segments
	windowStart, windowEnd  counters
	forcedGCs               int

	pipeBatches, pipeStored, pipeRetries int

	probes map[string]float64 // live probes, disk measures and replays, by metric name
	txs    int                // transactions on the chain when the rounds ended
}

func (l *layerState) begin(r *runner) {
	if r.tr == nil {
		return
	}
	l.probes = make(map[string]float64)
	ch := r.fw.Net.ChannelAt(0)
	chReg := r.reg.With(obs.L("channel", ch.Name()))
	for i, stage := range []string{"endorse", "order", "commit_wait"} {
		l.gwHists[i] = chReg.Histogram("tx_stage_seconds", "", nil, obs.L("stage", stage))
	}
	for _, p := range ch.Peers() {
		pReg := chReg.With(obs.L("peer", p.ID()))
		var hs [4]*obs.Histogram
		for i, stage := range []string{"endorse_exec", "validate", "commit", "consensus_decide"} {
			hs[i] = pReg.Histogram("tx_stage_seconds", "", nil, obs.L("stage", stage))
		}
		l.peerHists = append(l.peerHists, hs)
	}
	p0 := chReg.With(obs.L("peer", ch.Peer(0).ID()))
	l.txValid = p0.Counter("peer_txs_committed_total", "")
	l.txInvalid = p0.Counter("peer_txs_invalid_total", "")
	l.windowStart = l.snap(r)
}

func (l *layerState) end(r *runner) {
	if r.tr == nil {
		return
	}
	l.windowEnd = l.snap(r)
	l.window.addDelta(&l.windowEnd, &l.windowStart)
}

// segment runs fn and, in a traced run, adds the counters' movement
// across it to acc.
func (l *layerState) segment(r *runner, acc *counters, fn func()) {
	if r.tr == nil {
		fn()
		return
	}
	before := l.snap(r)
	fn()
	after := l.snap(r)
	acc.addDelta(&after, &before)
}

func (l *layerState) notePipeline(s ingest.Stats) {
	l.pipeBatches += s.Batches
	l.pipeStored += s.Stored
	l.pipeRetries += s.ConflictRetries
}

// snap reads every exported counter once.
func (l *layerState) snap(r *runner) counters {
	var c counters
	ch := r.fw.Net.ChannelAt(0)
	c[cHeight] = float64(ch.Peer(0).Height())
	c[cInvalid] = float64(l.txInvalid.Load())
	c[cTxs] = float64(l.txValid.Load()) + c[cInvalid]
	for i, h := range l.gwHists {
		c[cEndorseN+2*i] = float64(h.Count())
		c[cEndorseS+2*i] = h.Sum().Seconds()
	}
	for _, hs := range l.peerHists {
		for i, h := range hs {
			c[cExecN+2*i] += float64(h.Count())
			c[cExecS+2*i] += h.Sum().Seconds()
		}
	}
	for i, p := range ch.Peers() {
		hits, misses := p.VerifyCacheStats()
		vh, vm := ch.Validator(i).VerifyCacheStats()
		c[cCacheHit] += float64(hits + vh)
		c[cCacheMiss] += float64(misses + vm)
		c[cViewChanges] += float64(ch.Validator(i).ViewChanges())
		for _, get := range []func() (storage.PersistStats, bool){p.State().StorageStats, p.History().StorageStats} {
			s, ok := get()
			if !ok {
				continue
			}
			c[cFlushes] += float64(s.Flushes)
			c[cCompactions] += float64(s.Compactions)
			c[cCompactedBytes] += float64(s.CompactedBytes)
			c[cStalls] += float64(s.StallWaits)
			c[cFsyncs] += float64(s.WALFsyncs)
			c[cBloomChecks] += float64(s.BloomChecks)
			c[cBloomSkips] += float64(s.BloomSkips)
			c[cBlockReads] += float64(s.BlockReads)
			c[cSSTables] += float64(s.SSTables)
		}
	}
	swap := r.reader.IPFS().Bitswap().Stats()
	c[cSwapBlocks] = float64(swap.BlocksReceived.Load())
	c[cSwapBytes] = float64(swap.BytesReceived.Load())
	for _, t := range r.fw.Net.Transports() {
		tc := t.Counters()
		c[cWireBytes] += float64(tc.BytesSent.Load())
		c[cWireFrames] += float64(tc.FramesSent.Load())
		c[cReconnects] += float64(tc.Reconnects.Load())
		c[cDrops] += float64(tc.Drops.Load())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c[cAllocBytes] = float64(m.TotalAlloc)
	c[cGCs] = float64(m.NumGC)
	c[cPauseNs] = float64(m.PauseTotalNs)
	c[cStoreBlocks] = float64(r.writer.IPFS().Blockstore().Len())
	return c
}

// timeEach returns the mean time of fn over n calls.
func timeEach(n int, fn func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t) / time.Duration(n)
}

// probeLive times single calls into leaf layers of the still-running
// deployment, on the records the rounds left behind.
func (l *layerState) probeLive(r *runner) {
	ch := r.fw.Net.ChannelAt(0)
	p0 := ch.Peer(0)
	sample := func(n int) []stored {
		if n > len(r.all) {
			n = len(r.all)
		}
		out := make([]stored, n)
		for i := range out {
			out[i] = r.pickStored()
		}
		return out
	}

	qe := r.reader.Query()
	recs := sample(200)
	l.probes["query.metadata_ms"] = ms(timeEach(len(recs), func(i int) {
		if _, err := qe.Metadata(recs[i].txID); err != nil {
			r.fail("probe metadata: %v", err)
		}
	}))
	ids := make([]string, 0, 32)
	for _, st := range sample(32) {
		ids = append(ids, st.txID)
	}
	l.probes["query.get_many_ms_per_item"] = ms(timeEach(10, func(int) {
		for _, it := range qe.GetMany(ids, 2) {
			if it.Err != nil {
				r.fail("probe get-many: %v", it.Err)
			}
		}
	})) / float64(len(ids))

	label := contracts.IndexLabel
	l.probes["statedb.index_page_ms"] = ms(timeEach(50, func(int) {
		if _, err := p0.State().IterIndex(label, "", pageLimit, 0, ""); err != nil {
			r.fail("probe index page: %v", err)
		}
	}))
	if page, err := p0.State().IterIndex(label, "", 1000, 0, ""); err == nil && len(page.Entries) > 0 {
		l.probes["statedb.get_state_us"] = us(timeEach(len(page.Entries), func(i int) {
			if _, ok := p0.State().GetState(contracts.DataCC, page.Entries[i].Key); !ok {
				r.fail("probe get-state: %s missing", page.Entries[i].Key)
			}
		}))
	}

	var txIDs []string
	p0.Ledger().Iterate(func(b *ledger.Block) bool {
		for i := range b.Txs {
			txIDs = append(txIDs, b.Txs[i].ID)
		}
		return true
	})
	l.txs = len(txIDs)
	if len(txIDs) > 2000 {
		txIDs = txIDs[len(txIDs)-2000:]
	}
	l.probes["ledger.get_tx_us"] = us(timeEach(len(txIDs), func(i int) {
		if _, _, _, err := p0.Ledger().GetTx(txIDs[i]); err != nil {
			r.fail("probe get-tx: %v", err)
		}
	}))

	// Off-chain reads: from the node that added the content, then from
	// the other node, whose first fetch crosses DHT and bitswap and whose
	// second is local.
	local, remote := r.fw.Cluster.Node(0), r.fw.Cluster.Node(1)
	var cids, fresh []cid.Cid
	for _, st := range sample(100) {
		c, err := cid.Parse(st.cid)
		if err != nil {
			r.fail("probe: bad cid %s", st.cid)
			continue
		}
		cids = append(cids, c)
		if len(fresh) < 50 && !remote.Blockstore().Has(c) {
			fresh = append(fresh, c)
		}
	}
	get := func(n *ipfs.Node, cs []cid.Cid) time.Duration {
		return timeEach(len(cs), func(i int) {
			if _, err := n.Get(cs[i]); err != nil {
				r.fail("probe ipfs get: %v", err)
			}
		})
	}
	l.probes["ipfs.get_local_ms"] = ms(get(local, cids))
	l.probes["ipfs.get_remote_first_ms"] = ms(get(remote, fresh))
	l.probes["ipfs.get_remote_repeat_ms"] = ms(get(remote, fresh))

	l.probes["runtime.goroutines_end"] = float64(runtime.NumGoroutine())
}

// measureDisk reads the closed deployment's files.
func (l *layerState) measureDisk(r *runner, chain int64) {
	peers := float64(len(l.peerHists))
	l.probes["ledger.block_bytes_per_tx"] = ratio(float64(chain)/peers, float64(l.txs))
	off, err := treeBytes(filepath.Join(r.dataDir(), "ipfs"), "")
	if err != nil {
		r.fail("measure ipfs dir: %v", err)
	}
	l.probes["blockstore.bytes_per_payload_byte"] = ratio(float64(off), float64(len(r.all))*float64(r.sp.payload))
}

// replay pushes the run's own data through leaf layers once more, on a
// copy of peer 0's directory, and times calls that never run alone during
// the rounds: opening each store, appending to a block log, signing,
// chunking, framing.
func (l *layerState) replay(r *runner) error {
	src, err := peerDir(r.dataDir())
	if err != nil {
		return err
	}
	scratch := filepath.Join(r.dir, "replay")
	registry := chaincode.NewRegistry()
	for _, cc := range contracts.All() {
		if err := registry.Register(cc); err != nil {
			return err
		}
	}
	signer := msp.NewSignerFromSeed("bench", "replay", "peer", msp.RoleMember)

	// Three copies of the directory; on each, the block log, the state
	// engine and the whole peer are opened in turn and closed again.
	var blocks []*ledger.Block
	var logOpen, stateOpen, peerOpen []float64
	for i := 0; i < 3; i++ {
		dir := filepath.Join(scratch, fmt.Sprintf("peer-%d", i))
		if err := copyTree(src, dir); err != nil {
			return err
		}
		t := time.Now()
		log, err := ledger.OpenLog(filepath.Join(dir, blockLog))
		logOpen = append(logOpen, ms(time.Since(t)))
		if err != nil {
			return fmt.Errorf("replay block log: %w", err)
		}
		blocks = log.Blocks()
		if err := log.Close(); err != nil {
			return err
		}

		t = time.Now()
		kv, err := storage.Open(storage.Config{Engine: storage.EnginePersist, Dir: filepath.Join(dir, "db"), Durability: storage.DurabilityNone})
		stateOpen = append(stateOpen, ms(time.Since(t)))
		if err != nil {
			return fmt.Errorf("replay state open: %w", err)
		}
		if err := kv.Close(); err != nil {
			return err
		}

		t = time.Now()
		p, err := peer.Open(peer.Config{
			ID: "replay", ChannelID: "traffic-channel", Signer: signer, Registry: registry,
			Policy:  msp.TwoThirds(4),
			State:   storage.Config{Durability: storage.DurabilityNone},
			DataDir: dir, Indexes: contracts.DataIndexes(),
		})
		peerOpen = append(peerOpen, ms(time.Since(t)))
		if err != nil {
			return fmt.Errorf("replay peer open: %w", err)
		}
		if err := p.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	l.probes["ledger.log_open_ms"] = median(logOpen)
	l.probes["storage.open_ms"] = median(stateOpen)
	l.probes["peer.open_ms"] = median(peerOpen)

	if len(blocks) > 2000 {
		blocks = blocks[:2000]
	}
	fresh, err := ledger.OpenLog(filepath.Join(scratch, "append.wal"))
	if err != nil {
		return err
	}
	var appendErr error
	l.probes["ledger.log_append_us"] = us(timeEach(len(blocks), func(i int) {
		if err := fresh.Append(blocks[i]); err != nil && appendErr == nil {
			appendErr = err
		}
	}))
	if err := fresh.Close(); err != nil || appendErr != nil {
		return fmt.Errorf("replay block append: %v / %v", appendErr, err)
	}

	// The off-chain cluster reopens in place: it is closed, nothing else
	// will use it, and a 1 MiB-payload store is too large to copy.
	t := time.Now()
	cluster, err := ipfs.NewCluster(ipfs.ClusterConfig{Nodes: 2, DataDir: filepath.Join(r.dataDir(), "ipfs")})
	if err != nil {
		return fmt.Errorf("replay ipfs reopen: %w", err)
	}
	l.probes["ipfs.reopen_ms"] = ms(time.Since(t))
	if err := cluster.Close(); err != nil {
		return err
	}

	// The signature check StoreData makes before its first timed stage, on
	// submissions of this workload's size.
	ins := r.g.inputs(20, r.sp.payload)
	l.probes["core.store_verify_us"] = us(timeEach(len(ins), func(i int) {
		if !ins[i].rec.Signed.Verify() {
			r.fail("probe verify: submission's signature rejected")
		}
	}))

	msg := payloadAt(1, 1024)
	sig := r.cam.Sign(msg)
	l.probes["msp.sign_us"] = us(timeEach(500, func(int) { sig = r.cam.Sign(msg) }))
	l.probes["msp.verify_us"] = us(timeEach(500, func(int) {
		if !r.cam.Identity.Verify(msg, sig) {
			r.fail("probe verify: signature rejected")
		}
	}))

	body := payloadAt(2, r.sp.payload)
	reps := (16<<20)/len(body) + 1
	per := timeEach(reps, func(int) {
		if _, err := chunker.ChunkAll(chunker.NewFixed(bytes.NewReader(body), 0)); err != nil {
			r.fail("probe chunker: %v", err)
		}
	})
	l.probes["chunker.mb_per_s"] = float64(len(body)) / (1 << 20) / per.Seconds()

	frameBody := payloadAt(3, 1024)
	l.probes["transport.frame_codec_us"] = us(timeEach(2000, func(int) {
		f, err := transport.EncodeFrame("consensus", frameBody)
		if err == nil {
			_, _, _, err = transport.DecodeFrame(f, 0)
		}
		if err != nil {
			r.fail("probe frame codec: %v", err)
		}
	}))
	return nil
}

// metrics assembles every per-layer metric.
func (l *layerState) metrics(r *runner, rep *report) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for k, v := range l.probes {
		out[k] = v
	}
	tr := r.tr
	out["core.store_validate_ms"] = ms(tr.meanChild("store", "validate"))
	out["core.store_ipfs_add_ms"] = ms(tr.meanChild("store", "ipfs_add"))
	out["core.store_submit_ms"] = ms(tr.meanChild("store", "submit"))
	out["core.retrieve_chain_ms"] = ms(tr.meanChild("retrieve", "chain"))
	out["core.retrieve_ipfs_ms"] = ms(tr.meanChild("retrieve", "ipfs"))
	out["core.retrieve_verify_ms"] = ms(tr.meanChild("retrieve", "verify"))
	out["core.boot_ms"] = 1000 * rep.endToEnd["reopen_s"]
	out["harness.store_span_coverage_pct"] = tr.coverage("store")
	out["harness.retrieve_span_coverage_pct"] = tr.coverage("retrieve")
	// Beside an untraced run's store_rps this is the cost of tracing
	// (registry and spans); calibrate.sh prints the difference.
	out["harness.traced_store_rps"] = rep.endToEnd["store_rps"]
	for _, m := range ungated {
		out["ungated."+m.name] = rep.endToEnd[m.name]
	}
	out["harness.generator_late_p95_ms"] = percentile(r.late, 0.95)

	// Stage means over the store segments (over the whole window in the
	// open-loop workload, where stores never run alone).
	st := &l.store
	if r.sp.tcp {
		st = &l.window
	}
	records := float64(r.sp.stores * rep.rounds)
	out["fabric.endorse_ms"] = st.meanMS(cEndorseN, cEndorseS)
	out["fabric.order_ms"] = st.meanMS(cOrderN, cOrderS)
	out["fabric.commit_wait_ms"] = st.meanMS(cWaitN, cWaitS)
	if !r.sp.bulk {
		out["fabric.unaccounted_ms"] = out["core.store_submit_ms"] -
			(out["fabric.endorse_ms"] + out["fabric.order_ms"] + out["fabric.commit_wait_ms"])
	}
	out["fabric.retry_txs_per_1k"] = 1000 * ratio(st[cInvalid], records)
	out["peer.endorse_exec_ms"] = st.meanMS(cExecN, cExecS)
	out["peer.validate_ms"] = st.meanMS(cValidateN, cValidateS)
	out["peer.commit_ms"] = st.meanMS(cCommitN, cCommitS)
	out["consensus.decide_ms"] = st.meanMS(cDecideN, cDecideS)
	out["consensus.view_changes"] = l.window[cViewChanges]
	out["ordering.txs_per_block"] = ratio(st[cTxs], st[cHeight])
	out["msp.verify_cache_hit_ratio"] = ratio(st[cCacheHit], st[cCacheHit]+st[cCacheMiss])
	out["blockstore.blocks_per_record"] = ratio(st[cStoreBlocks], records)
	out["runtime.alloc_mb_per_record"] = ratio(st[cAllocBytes], records) / (1 << 20)

	rt := &l.retrieve
	if r.sp.tcp {
		rt = &l.window
	}
	retrieves := float64(r.sp.retrieves * rep.rounds)
	out["storage.bloom_skip_ratio"] = ratio(rt[cBloomSkips], rt[cBloomChecks])
	out["storage.block_reads_per_retrieve"] = ratio(rt[cBlockReads], retrieves)
	out["bitswap.blocks_per_retrieve"] = ratio(rt[cSwapBlocks], retrieves)
	out["bitswap.bytes_per_retrieve"] = ratio(rt[cSwapBytes], retrieves)

	w := &l.window
	out["storage.flushes"] = w[cFlushes]
	out["storage.compactions"] = w[cCompactions]
	out["storage.compacted_bytes_per_record"] = ratio(w[cCompactedBytes], records)
	out["storage.stall_waits"] = w[cStalls]
	out["storage.wal_fsyncs"] = w[cFsyncs]
	out["storage.sstables_end"] = l.windowEnd[cSSTables]
	out["transport.bytes_per_record"] = ratio(w[cWireBytes], records)
	out["transport.frames_per_record"] = ratio(w[cWireFrames], records)
	out["transport.reconnects"] = w[cReconnects]
	out["transport.drops"] = w[cDrops]
	out["runtime.gc_cycles"] = w[cGCs] - float64(l.forcedGCs) // less the ones the harness forced
	out["runtime.gc_pause_total_ms"] = w[cPauseNs] / 1e6
	out["ingest.records_per_batch"] = ratio(float64(l.pipeStored), float64(l.pipeBatches))
	out["ingest.conflict_retries"] = float64(l.pipeRetries)
	return out
}

// peerDir finds the first peer directory under a deployment's data
// directory (the one holding a block log).
func peerDir(data string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(data, "fabric", "*", blockLog))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("no peer directory under %s", data)
	}
	sort.Strings(matches)
	return filepath.Dir(matches[0]), nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
