package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/core"
	"socialchain/internal/detect"
	"socialchain/internal/ingest"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
)

// options is one invocation of the benchmark.
type options struct {
	sp       spec
	seed     int64
	seconds  float64 // measuring time; fixes the round count
	trace    bool
	traceOut string  // spans as JSON lines ("" = none)
	scale    float64 // < 1 shrinks the workload for smoke tests
	root     string  // scratch directory; everything written lives under it
}

// setups is how often a run sets the deployment up (once in a smoke run);
// it reports the median, and the last set-up is the deployment the rounds
// measure. How often it is restarted is the workload's (spec.restarts).
const setups = 3

// interval is when one operation was issued and when its call returned.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// stored is what the harness remembers of an acknowledged record: enough
// to ask for it again and to check every byte that comes back.
type stored struct {
	txID, cid string
	pstate    uint64
	label     string
}

// report is what a run measured.
type report struct {
	attempted, failed int64
	correct           bool
	rounds            int
	endToEnd          map[string]float64 // every end-to-end figure, gated or not
	perLayer          map[string]float64 // traced runs only
	tracer            *tracer            // traced runs only
	extra             []string           // ungated lines for the human reader
}

type runner struct {
	opt  options
	sp   spec
	cam  *msp.Signer
	g    *gen // inputs, in submission order
	pick *gen // which record to read and which label to query
	reg  *obs.Registry
	tr   *tracer

	dir            string
	fw             *core.Framework
	writer, reader *core.Client

	mu       sync.Mutex // the open-loop workload acknowledges and reads concurrently
	all      []stored
	perLabel map[string]int

	attempted, failed atomic.Int64
	faultMu           sync.Mutex
	faults            int
	broken            bool // a whole-deployment check failed (chain, tips, close)

	storeLat, retrLat, queryLat [][]float64 // ms, one slice per round
	storeRPS, retrRPS           []float64   // one figure per round
	late                        []float64   // ms behind schedule, every open-loop operation, sorted once the loop ends

	lay layerState
}

// fail counts one failed operation (or failed check on one) and shows the
// first few on standard error.
func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.faultMu.Lock()
	defer r.faultMu.Unlock()
	if r.faults++; r.faults <= 10 {
		fmt.Fprintf(os.Stderr, "bench: FAILED "+format+"\n", args...)
	}
}

// ack remembers an acknowledged record.
func (r *runner) ack(st stored) {
	r.mu.Lock()
	r.all = append(r.all, st)
	r.perLabel[st.label]++
	r.mu.Unlock()
}

// pickStored chooses a uniformly random acknowledged record.
func (r *runner) pickStored() stored {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.all[r.pick.intn(len(r.all))]
}

// pickLabel chooses a label to query and the page size the answer must
// have.
func (r *runner) pickLabel() (label string, want int) {
	label = detect.VehicleLabels[r.pick.intn(r.sp.labels)]
	r.mu.Lock()
	want = r.perLabel[label]
	r.mu.Unlock()
	if want > pageLimit {
		want = pageLimit
	}
	return label, want
}

func run(opt options) (*report, error) {
	runtime.GOMAXPROCS(2)
	r := &runner{
		opt:      opt,
		sp:       opt.sp.scaled(opt.scale),
		cam:      msp.NewSignerFromSeed("bench", "city", "cam-0", msp.RoleTrustedSource),
		perLabel: make(map[string]int),
	}
	r.pick = &gen{state: seedState(opt.seed ^ 0x5bd1e995)}
	if opt.trace {
		r.reg = obs.NewRegistry()
		r.tr = newTracer()
	}
	if err := os.MkdirAll(opt.root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r.dir = dir

	rep := &report{endToEnd: make(map[string]float64)}
	began := time.Now()
	setupS, err := r.setup()
	if err != nil {
		return nil, err
	}
	rep.endToEnd["setup_s"] = setupS
	defer func() {
		if r.fw != nil {
			r.fw.Close()
		}
	}()
	setupDone := time.Now()

	rep.rounds = opt.sp.rounds(opt.seconds)
	r.lay.begin(r)
	if r.sp.tcp {
		r.openLoop(rep.rounds)
	} else {
		r.closedLoop(rep.rounds)
	}
	r.lay.end(r)
	if err := r.latencyMetrics(rep); err != nil {
		return nil, err
	}
	roundsDone := time.Now()

	// Consecutive states, one record apart: see spec.restarts.
	var heaps []float64
	for i := 0; i < r.sp.restarts; i++ {
		if i > 0 {
			r.oneMore(r.writer, r.reader)
		}
		heaps = append(heaps, liveHeapMB(r.heapPause()))
	}
	rep.endToEnd["live_heap_mb"] = mean(heaps)
	if opt.trace {
		r.lay.probeLive(r)
	}

	r.fw.Close()
	if err := r.fw.CloseErr(); err != nil {
		r.broken = true
		fmt.Fprintf(os.Stderr, "bench: close: %v\n", err)
	}
	r.fw = nil
	records := float64(len(r.all))
	chain, err := treeBytes(r.dataDir(), blockLog)
	if err != nil {
		return nil, err
	}
	disk, err := treeBytes(r.dataDir(), "")
	if err != nil {
		return nil, err
	}
	rep.endToEnd["chain_bytes_per_record"] = float64(chain) / records
	rep.endToEnd["disk_bytes_per_payload_byte"] = float64(disk) / (records * float64(r.sp.payload))
	if opt.trace {
		r.lay.measureDisk(r, chain)
	}

	reopenS, reopenHeap, err := r.reopen()
	if err != nil {
		return nil, err
	}
	rep.endToEnd["reopen_s"] = reopenS
	rep.endToEnd["reopen_heap_mb"] = reopenHeap
	// The peak is read before the traced run's replays, which are the
	// harness's own work.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	rep.endToEnd["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	rep.extra = append(rep.extra, fmt.Sprintf("wall: set-up %.1f s, rounds %.1f s, heap, close and reopens %.1f s",
		setupDone.Sub(began).Seconds(), roundsDone.Sub(setupDone).Seconds(), time.Since(roundsDone).Seconds()))

	if opt.trace {
		if err := r.lay.replay(r); err != nil {
			return nil, err
		}
		rep.perLayer, rep.tracer = r.lay.metrics(r, rep), r.tr
		if opt.traceOut != "" {
			if err := r.tr.writeJSONL(opt.traceOut); err != nil {
				return nil, err
			}
		}
	}

	rep.attempted, rep.failed = r.attempted.Load(), r.failed.Load()
	rep.correct = rep.failed == 0 && !r.broken
	r.extras(rep)
	return rep, nil
}

// liveHeapMB reads the live heap of an idle deployment: the smallest of
// three readings a pause apart, each after a forced collection. A flush or
// compaction that happens to be running holds tens of megabytes of
// buffers for a moment (1 MiB payloads: 41 MB or 60 MB, nothing between),
// and a single reading reports whichever it met.
func liveHeapMB(pause time.Duration) float64 {
	least := 0.0
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(pause)
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if mb := float64(m.HeapAlloc) / (1 << 20); i == 0 || mb < least {
			least = mb
		}
	}
	return least
}

// heapPause is 100 ms, shrunk with the workload in smoke runs.
func (r *runner) heapPause() time.Duration {
	return time.Duration(float64(100*time.Millisecond) * r.opt.scale)
}

// gc forces a collection inside the timed window and counts it, so the
// traced run can report the collections the program itself caused.
func (r *runner) gc() {
	runtime.GC()
	r.lay.forcedGCs++
}

func (r *runner) dataDir() string { return filepath.Join(r.dir, "data") }

// blockLog is the name of every peer's block log file.
const blockLog = "blocks.wal"

// setup builds the deployment three times, each on an empty
// directory: core.New, source registration, and the preload through the
// ingest pipeline. It returns the median time and keeps the last
// deployment for the measured rounds. Inputs are generated between the
// timed parts, in slabs, so the corpus is never resident at once.
func (r *runner) setup() (float64, error) {
	slab := (64 << 20) / r.sp.payload
	memo := make(sealMemo)
	var times []float64
	n := setups
	if r.opt.scale < 1 {
		n = 1
	}
	for s := 0; s < n; s++ {
		last := s == n-1
		dir := r.dataDir()
		var reg *obs.Registry
		if last {
			reg = r.reg
		}
		g := newGen(r.opt.seed, r.sp.labels, r.cam, memo)
		runtime.GC()

		t := time.Now()
		fw, err := core.New(deployConfig(dir, r.sp.tcp, reg))
		if err != nil {
			return 0, fmt.Errorf("set-up %d: %w", s, err)
		}
		if err := fw.RegisterSource(r.cam.Identity, true); err != nil {
			fw.Close()
			return 0, fmt.Errorf("set-up %d: register source: %w", s, err)
		}
		client := fw.Client(r.cam, 0)
		elapsed := time.Since(t)

		var acks []stored
		for done := 0; done < r.sp.preload; {
			n := r.sp.preload - done
			if n > slab {
				n = slab
			}
			ins := g.inputs(n, r.sp.payload)
			t = time.Now()
			res := client.Pipeline(pipelineCfg).Run(records(ins))
			elapsed += time.Since(t)
			for i, re := range res {
				r.attempted.Add(1)
				if re.Err != nil {
					r.fail("preload record: %v", re.Err)
					continue
				}
				acks = append(acks, stored{txID: re.RecordID, cid: re.CID, pstate: ins[i].pstate, label: ins[i].label})
			}
			done += n
		}
		times = append(times, elapsed.Seconds())
		if !last {
			fw.Close()
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
			continue
		}
		r.fw, r.g, r.writer = fw, g, client
		r.reader = fw.Client(r.cam, r.sp.readerNode)
		for _, st := range acks {
			r.ack(st)
		}
	}
	if len(r.all) == 0 {
		return 0, fmt.Errorf("set-up stored no record")
	}
	return median(times), nil
}

func records(ins []input) []ingest.Record {
	recs := make([]ingest.Record, len(ins))
	for i, in := range ins {
		recs[i] = in.rec
	}
	return recs
}

// closedLoop runs the timed rounds of the three closed-loop workloads:
// store segment, retrieve segment, query segment, with the next
// segment's inputs generated and a collection forced between them,
// outside every timer. One segment's garbage is therefore never billed to
// the next, and a round's figures do not depend on its position.
func (r *runner) closedLoop(rounds int) {
	for round := 0; round < rounds; round++ {
		ins := r.g.inputs(r.sp.stores, r.sp.payload)
		r.gc()
		r.lay.segment(r, &r.lay.store, func() {
			if r.sp.bulk {
				r.bulkStores(ins)
			} else {
				r.serialStores(ins)
			}
		})
		ins = nil
		r.gc()
		r.lay.segment(r, &r.lay.retrieve, r.retrieves)
		r.gc()
		r.queries()
	}
}

// serialStores issues one round's stores from a single closed-loop
// writer. The rate is operations per second of time spent inside the
// calls, so the harness's own bookkeeping between calls is not in it.
func (r *runner) serialStores(ins []input) {
	lat := make([]float64, 0, len(ins))
	var busy time.Duration
	for _, in := range ins {
		st, iv, err := r.store(in, time.Time{})
		busy += iv.dur()
		lat = append(lat, ms(iv.dur()))
		r.attempted.Add(1)
		if err != nil {
			r.fail("store: %v", err)
			continue
		}
		r.ack(st)
	}
	r.storeLat = append(r.storeLat, lat)
	r.storeRPS = append(r.storeRPS, float64(len(ins))/busy.Seconds())
}

// store stores one record through Client.StoreData. A traced run turns
// the receipt's StoreTiming into child spans, laid back from the return:
// the three stages run one after another and the call returns after the
// last, so what StoreTiming leaves out (signature check, marshalling,
// payload hash — 3 ms of a 1 MiB store) is the stretch before them,
// "prepare". due, when set, is the open-loop due time the root span
// starts from.
func (r *runner) store(in input, due time.Time) (stored, interval, error) {
	st := stored{pstate: in.pstate, label: in.label}
	t0 := time.Now()
	rc, err := r.writer.StoreData(in.rec.Signed, in.rec.Meta)
	iv := interval{t0, time.Now()}
	if err != nil {
		return st, iv, err
	}
	st.txID, st.cid = rc.TxID, rc.CID
	if r.tr != nil {
		op, id := r.tr.root("store", due, iv.start, iv.end)
		submit := iv.end.Add(-rc.Timing.Blockchain)
		add := submit.Add(-rc.Timing.IPFS)
		validate := add.Add(-rc.Timing.Validate)
		r.tr.add(op, id, "prepare", iv.start, validate)
		r.tr.add(op, id, "validate", validate, add)
		r.tr.add(op, id, "ipfs_add", add, submit)
		r.tr.add(op, id, "submit", submit, iv.end)
	}
	return st, iv, nil
}

// bulkStores runs one round's records through one ingest pipeline.
// Latency is the pipeline's own Submit-to-commit figure per record. The
// pipeline is opaque from outside, so a traced run only splits the Run
// into its feed and drain phases.
func (r *runner) bulkStores(ins []input) {
	pipe := r.writer.Pipeline(pipelineCfg)
	t0 := time.Now()
	pipe.Start()
	for _, in := range ins {
		if err := pipe.Submit(in.rec); err != nil {
			break // Drain reports the unsubmitted records as missing results
		}
	}
	t1 := time.Now()
	res := pipe.Drain()
	t2 := time.Now()
	if r.tr != nil {
		op, id := r.tr.root("store", time.Time{}, t0, t2)
		r.tr.add(op, id, "feed", t0, t1)
		r.tr.add(op, id, "drain", t1, t2)
	}
	r.lay.notePipeline(pipe.Stats())

	lat := make([]float64, 0, len(ins))
	for i, in := range ins {
		r.attempted.Add(1)
		if i >= len(res) {
			r.fail("bulk store: record never submitted")
			continue
		}
		lat = append(lat, ms(res[i].Latency))
		if res[i].Err != nil {
			r.fail("bulk store: %v", res[i].Err)
			continue
		}
		r.ack(stored{txID: res[i].RecordID, cid: res[i].CID, pstate: in.pstate, label: in.label})
	}
	r.storeLat = append(r.storeLat, lat)
	r.storeRPS = append(r.storeRPS, float64(len(ins))/t2.Sub(t0).Seconds())
}

// retrieves runs one round's retrieve segment.
func (r *runner) retrieves() {
	lat := make([]float64, 0, r.sp.retrieves)
	var busy time.Duration
	for i := 0; i < r.sp.retrieves; i++ {
		d := r.retrieve(r.pickStored(), time.Time{}).dur()
		busy += d
		lat = append(lat, ms(d))
	}
	r.retrLat = append(r.retrLat, lat)
	r.retrRPS = append(r.retrRPS, float64(r.sp.retrieves)/busy.Seconds())
}

// retrieve reads one record back through the reader and checks it. The
// interval it returns ends before the check begins.
func (r *runner) retrieve(st stored, due time.Time) interval {
	t0 := time.Now()
	res, err := r.reader.RetrieveData(st.txID)
	iv := interval{t0, time.Now()}
	r.checkRetrieved(st, res, err)
	if r.tr != nil && err == nil {
		op, id := r.tr.root("retrieve", due, iv.start, iv.end)
		// query.Timing reports the three stages in the order they ran.
		t1 := t0.Add(res.Timing.Blockchain)
		t2 := t1.Add(res.Timing.IPFS)
		r.tr.add(op, id, "chain", t0, t1)
		r.tr.add(op, id, "ipfs", t1, t2)
		r.tr.add(op, id, "verify", t2, t2.Add(res.Timing.Verify))
	}
	return iv
}

// checkRetrieved counts one retrieve and holds it to what the harness
// stored under that transaction ID: verified, the same CID, and the same
// payload byte for byte.
func (r *runner) checkRetrieved(st stored, res *core.RetrieveResult, err error) {
	r.attempted.Add(1)
	switch {
	case err != nil:
		r.fail("retrieve %s: %v", st.txID, err)
	case !res.Verified:
		r.fail("retrieve %s: not verified", st.txID)
	case res.Record.CID != st.cid:
		r.fail("retrieve %s: cid %s, stored %s", st.txID, res.Record.CID, st.cid)
	case !bytes.Equal(res.Payload, payloadAt(st.pstate, r.sp.payload)):
		r.fail("retrieve %s: payload differs from what was stored", st.txID)
	}
}

// queries runs one round's query segment.
func (r *runner) queries() {
	lat := make([]float64, 0, r.sp.queries)
	for i := 0; i < r.sp.queries; i++ {
		lat = append(lat, ms(r.query(time.Time{}).dur()))
	}
	r.queryLat = append(r.queryLat, lat)
}

// query runs one conditional query — the first page of one label — and
// checks that the page is as long as it must be and that every record on
// it matches the predicate. The interval ends before the check begins.
func (r *runner) query(due time.Time) interval {
	label, want := r.pickLabel()
	t0 := time.Now()
	page, err := r.reader.Query().Page(contracts.IndexLabel, label, pageLimit, "")
	iv := interval{t0, time.Now()}
	r.attempted.Add(1)
	if err != nil {
		r.fail("query %s: %v", label, err)
		return iv
	}
	// A concurrent writer can only lengthen a page that was short.
	if len(page.Records) < want || len(page.Records) > pageLimit {
		r.fail("query %s: %d records, want %d", label, len(page.Records), want)
	}
	for _, rec := range page.Records {
		if rec.Label != label {
			r.fail("query %s: record %s has label %s", label, rec.TxID, rec.Label)
			break
		}
	}
	if r.tr != nil {
		op, id := r.tr.root("query", due, iv.start, iv.end)
		r.tr.add(op, id, "chain", t0, t0.Add(page.Timing.Blockchain))
	}
	return iv
}

// openLoop runs the serving workload: a writer goroutine stores on a
// fixed schedule while a reader goroutine retrieves and queries on its
// own, all three schedules starting together and running without a pause
// for rounds × roundSeconds. A round is a slice of the schedules; each
// latency runs from the operation's due time, and a round's rate is what
// completed over the time from its first due operation to its last
// completion.
func (r *runner) openLoop(rounds int) {
	sp := r.sp
	ins := r.g.inputs(rounds*sp.stores, sp.payload)
	r.storeLat = make([][]float64, rounds)
	r.retrLat = make([][]float64, rounds)
	r.queryLat = make([][]float64, rounds)
	lastStore := make([]time.Time, rounds)
	lastRetr := make([]time.Time, rounds)
	var lateMu sync.Mutex
	noteLate := func(d time.Duration) {
		lateMu.Lock()
		r.late = append(r.late, ms(d))
		lateMu.Unlock()
	}
	r.gc()

	start := time.Now().Add(20 * time.Millisecond)
	stores := newSchedule(start, float64(sp.stores)/sp.roundSeconds)
	retrs := newSchedule(start, float64(sp.retrieves)/sp.roundSeconds)
	qs := newSchedule(start, float64(sp.queries)/sp.roundSeconds)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		for i, in := range ins {
			round := i / sp.stores
			due := stores.due(i)
			time.Sleep(time.Until(due))
			st, iv, err := r.store(in, due)
			latency, late := stores.account(i, iv.start, iv.end)
			noteLate(late)
			r.storeLat[round] = append(r.storeLat[round], ms(latency))
			lastStore[round] = iv.end
			r.attempted.Add(1)
			if err != nil {
				r.fail("store: %v", err)
				continue
			}
			r.ack(st)
		}
	}()
	go func() { // reader: whichever of its two schedules is due next
		defer wg.Done()
		nr, nq := rounds*sp.retrieves, rounds*sp.queries
		for ir, iq := 0, 0; ir < nr || iq < nq; {
			if iq >= nq || (ir < nr && !qs.due(iq).Before(retrs.due(ir))) {
				round := ir / sp.retrieves
				due := retrs.due(ir)
				time.Sleep(time.Until(due))
				iv := r.retrieve(r.pickStored(), due)
				latency, late := retrs.account(ir, iv.start, iv.end)
				noteLate(late)
				r.retrLat[round] = append(r.retrLat[round], ms(latency))
				lastRetr[round] = iv.end
				ir++
				continue
			}
			round := iq / sp.queries
			due := qs.due(iq)
			time.Sleep(time.Until(due))
			iv := r.query(due)
			latency, late := qs.account(iq, iv.start, iv.end)
			noteLate(late)
			r.queryLat[round] = append(r.queryLat[round], ms(latency))
			iq++
		}
	}()
	wg.Wait()
	sort.Float64s(r.late)

	for round := 0; round < rounds; round++ {
		span := lastStore[round].Sub(stores.due(round * sp.stores))
		r.storeRPS = append(r.storeRPS, float64(sp.stores)/span.Seconds())
		span = lastRetr[round].Sub(retrs.due(round * sp.retrieves))
		r.retrRPS = append(r.retrRPS, float64(sp.retrieves)/span.Seconds())
	}
}

// latencyMetrics reduces the per-round samples to the run's figures: the
// median over rounds of the per-round percentile or rate.
func (r *runner) latencyMetrics(rep *report) error {
	floor := func(n int) int {
		if r.opt.scale < 1 {
			n = int(float64(n) * r.opt.scale)
		}
		if n < 1 {
			n = 1
		}
		return n
	}
	for _, m := range []struct {
		name   string
		rounds [][]float64
		q      float64
		min    int
	}{
		{"store_p50_ms", r.storeLat, 0.50, minP50},
		{"store_p95_ms", r.storeLat, 0.95, minP95},
		{"retrieve_p50_ms", r.retrLat, 0.50, minP50},
		{"retrieve_p95_ms", r.retrLat, 0.95, minP95},
		{"query_p50_ms", r.queryLat, 0.50, minP50},
	} {
		v, err := overRounds(m.rounds, m.q, floor(m.min))
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		rep.endToEnd[m.name] = v
	}
	rep.endToEnd["store_rps"] = median(r.storeRPS)
	rep.endToEnd["retrieve_rps"] = median(r.retrRPS)
	return nil
}

// extras adds the ungated figures a reader wants beside the gated ones.
func (r *runner) extras(rep *report) {
	for _, m := range ungated {
		rep.extra = append(rep.extra, fmt.Sprintf("%s %.4f %s (not gated)", m.name, rep.endToEnd[m.name], m.unit))
	}
	for _, m := range []struct {
		name   string
		rounds [][]float64
	}{{"store", r.storeLat}, {"retrieve", r.retrLat}, {"query", r.queryLat}} {
		all := flatten(m.rounds)
		rep.extra = append(rep.extra, fmt.Sprintf("%s: %d samples over %d rounds, whole-run p99 %.3f ms, max %.3f ms (not gated)",
			m.name, len(all), len(m.rounds), percentile(all, 0.99), all[len(all)-1]))
	}
	for i := range r.storeLat {
		p50 := func(lat [][]float64) float64 {
			s := append([]float64(nil), lat[i]...)
			sort.Float64s(s)
			return percentile(s, 0.5)
		}
		rep.extra = append(rep.extra, fmt.Sprintf("round %d: store p50 %.3f ms at %.1f/s, retrieve p50 %.4f ms at %.1f/s, query p50 %.3f ms",
			i, p50(r.storeLat), r.storeRPS[i], p50(r.retrLat), r.retrRPS[i], p50(r.queryLat)))
	}
	if len(r.late) > 0 {
		rep.extra = append(rep.extra, fmt.Sprintf("open-loop generators: p95 %.3f ms behind schedule, max %.3f ms",
			percentile(r.late, 0.95), r.late[len(r.late)-1]))
	}
}

// oneMore stores one more record through writer and reads it back
// through reader, counted and checked like every other operation and not
// timed. It is the step between two heap readings (spec.restarts).
func (r *runner) oneMore(writer, reader *core.Client) {
	in := r.g.inputs(1, r.sp.payload)[0]
	r.attempted.Add(1)
	rc, err := writer.StoreData(in.rec.Signed, in.rec.Meta)
	if err != nil {
		r.fail("store: %v", err)
		return
	}
	st := stored{txID: rc.TxID, cid: rc.CID, pstate: in.pstate, label: in.label}
	r.ack(st)
	res, err := reader.RetrieveData(st.txID)
	r.checkRetrieved(st, res, err)
}

// reopen restarts the closed deployment from its data directory
// spec.restarts times and returns the median time and the mean heap. Each
// restart is timed (core.New only) and its live heap read; then one more
// record is stored, so that the next restart opens the next state, and the
// deployment is checked: a sample of acknowledged records is read back and
// compared, every peer's hash chain verifies, and all peers hold one tip.
func (r *runner) reopen() (seconds, heapMB float64, err error) {
	var times, heaps []float64
	for i := 0; i < r.sp.restarts; i++ {
		runtime.GC()
		t := time.Now()
		fw, err := core.New(deployConfig(r.dataDir(), r.sp.tcp, nil))
		if err != nil {
			return 0, 0, fmt.Errorf("reopen %d: %w", i, err)
		}
		times = append(times, time.Since(t).Seconds())
		heaps = append(heaps, liveHeapMB(r.heapPause()))

		// The record goes in first: a flush it sets off has the checks to
		// finish in, and is not cut short by Close.
		client := fw.Client(r.cam, 0)
		r.oneMore(client, fw.Client(r.cam, r.sp.readerNode))
		for n := 0; n < r.sp.verifySample; n++ {
			st := r.pickStored()
			res, err := client.RetrieveData(st.txID)
			r.checkRetrieved(st, res, err)
		}
		r.checkChains(fw)
		fw.Close()
		if err := fw.CloseErr(); err != nil {
			r.broken = true
			fmt.Fprintf(os.Stderr, "bench: close after reopen %d: %v\n", i, err)
		}
	}
	return median(times), mean(heaps), nil
}

// checkChains verifies every peer's hash chain and that all peers of a
// channel agree on the tip.
func (r *runner) checkChains(fw *core.Framework) {
	for _, ch := range fw.Net.Channels() {
		// The bootstrap transaction core.New submits commits on the
		// submitting peer first; give the others a moment to apply it.
		ch.WaitHeight(ch.Peer(0).Height(), 5*time.Second)
		tip := ch.Peer(0).Ledger().TipHash()
		for _, p := range ch.Peers() {
			if err := p.Ledger().VerifyChain(); err != nil {
				r.broken = true
				fmt.Fprintf(os.Stderr, "bench: %s on %s: %v\n", p.ID(), ch.Name(), err)
			}
			if p.Ledger().TipHash() != tip {
				r.broken = true
				fmt.Fprintf(os.Stderr, "bench: %s on %s: tip differs from %s\n", p.ID(), ch.Name(), ch.Peer(0).ID())
			}
		}
	}
}

// treeBytes sums the files under dir: all of them, or only those named
// only when it is not empty.
func treeBytes(dir, only string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || (only != "" && d.Name() != only) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
