package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractFile checks BENCHMARK.json against the limits the driver
// enforces and against the tables this program reports from.
func TestContractFile(t *testing.T) {
	c := loadContract(t)
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", c.Paths)
	}
	if len(c.Command) == 0 || len(c.Command) > 32 {
		t.Errorf("command has %d parts", len(c.Command))
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(c.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the file, %d in the program", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		unique(w.Name)
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in the file, %q in the program", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	check := func(kind string, got []contractMetric, want []metric, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in the file, %s [%s] in the program", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	if len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(c.EndToEnd), len(c.PerLayer))
	}

	var setup *contractMetric
	for i := range c.EndToEnd {
		if c.EndToEnd[i].Name == "setup_s" {
			setup = &c.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s [s, lower] missing from end_to_end")
	}
	for _, m := range c.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s has bound %v, above setup_s's %v (set-up takes the largest)", m.Name, *m.Bound, *setup.Bound)
		}
	}
}

// TestSmokeEveryWorkload runs all four workloads at a fiftieth of their
// size, plain and traced, and holds the result line to the contract: the
// four keys, exactly the metrics BENCHMARK.json names with their units,
// outputs correct, nothing failed.
func TestSmokeEveryWorkload(t *testing.T) {
	c := loadContract(t)
	for _, w := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			w, trace := w, trace
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{
					"--workload", w.Name, "--seed", "7", "--seconds", "3", "--trace", trace,
					"-scale", "0.02", "-dir", t.TempDir(),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not a JSON object: %v\n%s", err, lines[len(lines)-1])
				}
				if len(raw) != 4 {
					t.Errorf("result has %d keys, want correct, attempted, failed, metrics", len(raw))
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := c.EndToEnd
				if trace == "1" {
					want = c.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, contract names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, contract says %q", m.Name, got.Unit, m.Unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; these are never 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestBadArgumentsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "small-serial", "-trace", "2"},
		{"-workload", "small-serial", "-scale", "0"},
		{"-workload", "small-serial", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(append(args, "-dir", t.TempDir()), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result: %s", args, stdout.String())
		}
	}
}
