// Command bench is the repository's benchmark: one workload per
// invocation, every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name and unit, outputs checked, operations attempted and
// failed counted. BENCHMARK.json at the repository root is its contract;
// README.md beside this file says why each workload and metric exists.
//
//	go run ./bench -workload small-serial -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// result is the JSON object the last output line carries.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	workload := fl.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fl.Int64("seed", 1, "seed every input is generated from")
	seconds := fl.Float64("seconds", 10, "measuring time; divided by the workload's round length it fixes the round count")
	trace := fl.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	traceOut := fl.String("trace-out", "", "write the traced run's spans to this file as JSON lines (default <dir>/trace-<workload>.jsonl)")
	scale := fl.Float64("scale", 1, "shrink every operation count by this factor (smoke tests; the numbers are not for quoting)")
	dir := fl.String("dir", ".bench_build", "scratch directory; every file the run writes lives under it")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	if *scale <= 0 || *scale > 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need 0 < -scale <= 1, -seconds > 0, -trace 0 or 1")
		return 2
	}
	opt := options{
		sp: sp, seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut,
		scale: *scale, root: *dir,
	}
	if opt.trace && opt.traceOut == "" {
		opt.traceOut = filepath.Join(*dir, "trace-"+sp.name+".jsonl")
	}

	rep, err := run(opt)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := printReport(stdout, opt, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// printReport writes the readable report and then the result line.
func printReport(w io.Writer, opt options, rep *report) error {
	list, values := endToEnd, rep.endToEnd
	if opt.trace {
		list, values = perLayer, rep.perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d: %d rounds, %d operations attempted, %d failed\n",
		opt.sp.name, opt.seed, rep.rounds, rep.attempted, rep.failed)
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]measured, len(list))}
	for _, m := range list {
		v := values[m.name]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = measured{Value: v, Unit: m.unit}
	}
	for _, line := range rep.extra {
		fmt.Fprintln(w, "  "+line)
	}
	if opt.trace {
		rep.tracer.printSelfTimes(w, "store")
		rep.tracer.printSelfTimes(w, "retrieve")
		fmt.Fprintf(w, "spans written to %s\n", opt.traceOut)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
