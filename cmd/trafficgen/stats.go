package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"socialchain/internal/fabric"
	"socialchain/internal/obs"
)

// stageSummary is one client-side lifecycle stage's latency digest.
type stageSummary struct {
	Count int64   `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
}

// runSummary is the -stats-out document: what this run achieved, where the
// client-side time went per lifecycle stage, and (when -admin-book is
// given) every node's /statusz snapshot at exit.
type runSummary struct {
	Records        int                                `json:"records"`
	Stored         int                                `json:"stored"`
	Failed         int                                `json:"failed"`
	ElapsedSeconds float64                            `json:"elapsed_seconds"`
	RecordsPerSec  float64                            `json:"records_per_sec"`
	Stages         map[string]map[string]stageSummary `json:"stages"` // channel -> stage -> digest
	Reads          *readSummary                       `json:"reads,omitempty"`
	Bloom          map[string]bloomSummary            `json:"bloom,omitempty"` // node -> LSM bloom counters
	Statusz        map[string]json.RawMessage         `json:"statusz,omitempty"`
}

// readSummary is the -read-frac mixed-workload digest.
type readSummary struct {
	Total  int     `json:"total"`
	Hits   int     `json:"hits"`
	Misses int     `json:"misses"` // absent-key probes correctly answered "not found"
	Wrong  int     `json:"wrong"`
	P50ms  float64 `json:"p50_ms"`
	P95ms  float64 `json:"p95_ms"`
}

// bloomSummary is one node's LSM bloom-filter counters, scraped from its
// /metrics surface after the workload (summed across stores).
type bloomSummary struct {
	Checks   float64 `json:"checks"`
	Skips    float64 `json:"skips"`
	SkipRate float64 `json:"skip_rate"`
}

// clientStages reads the gateway-side stage histograms back out of the
// client registry (same name+labels returns the same instrument), keyed
// by the channel name.
func clientStages(reg *obs.Registry, remote *fabric.Remote) map[string]map[string]stageSummary {
	name := remote.ChannelAt(0).Name()
	chReg := reg.With(obs.L("channel", name))
	stages := make(map[string]stageSummary)
	for _, stage := range []string{"endorse", "order", "commit_wait"} {
		h := chReg.Histogram("tx_stage_seconds", "", nil, obs.L("stage", stage))
		if h.Count() == 0 {
			continue
		}
		stages[stage] = stageSummary{
			Count: h.Count(),
			P50ms: h.Quantile(0.5) * 1000,
			P95ms: h.Quantile(0.95) * 1000,
			P99ms: h.Quantile(0.99) * 1000,
		}
	}
	return map[string]map[string]stageSummary{name: stages}
}

// scrapeStatusz GETs every admin surface's /statusz into raw JSON; an
// unreachable endpoint records an error object instead of failing the run.
func scrapeStatusz(adminBook string) (map[string]json.RawMessage, error) {
	if adminBook == "" {
		return nil, nil
	}
	book, err := parsePeerBook(adminBook)
	if err != nil {
		return nil, fmt.Errorf("bad -admin-book: %w", err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	out := make(map[string]json.RawMessage, len(book))
	for id, addr := range book {
		body, err := getJSON(client, "http://"+addr+"/statusz")
		if err != nil {
			msg, _ := json.Marshal(map[string]string{"error": err.Error()})
			out[id] = msg
			continue
		}
		out[id] = body
	}
	return out, nil
}

// scrapeBloom GETs every admin surface's /metrics and sums the LSM
// bloom-filter counters across that node's stores. Unreachable surfaces
// are simply absent from the result.
func scrapeBloom(adminBook string) (map[string]bloomSummary, error) {
	if adminBook == "" {
		return nil, nil
	}
	book, err := parsePeerBook(adminBook)
	if err != nil {
		return nil, fmt.Errorf("bad -admin-book: %w", err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	out := make(map[string]bloomSummary)
	for id, addr := range book {
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		var bs bloomSummary
		for _, line := range strings.Split(string(body), "\n") {
			name, rest, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(name, "#") {
				continue
			}
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
				// Labeled series: the value follows the closing brace.
				if j := strings.LastIndexByte(line, ' '); j >= 0 {
					rest = line[j+1:]
				}
			}
			v, verr := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if verr != nil {
				continue
			}
			switch name {
			case "storage_bloom_checks_total":
				bs.Checks += v
			case "storage_bloom_skips_total":
				bs.Skips += v
			}
		}
		if bs.Checks > 0 {
			bs.SkipRate = bs.Skips / bs.Checks
			out[id] = bs
		}
	}
	return out, nil
}

func getJSON(client *http.Client, url string) (json.RawMessage, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	if !json.Valid(body) {
		return nil, fmt.Errorf("%s: invalid JSON", url)
	}
	return body, nil
}

// writeRunSummary assembles and writes the -stats-out document.
func writeRunSummary(cfg connectConfig, reg *obs.Registry, remote *fabric.Remote, stored, failed int, elapsed time.Duration, reads readResults) error {
	sum := runSummary{
		Records:        cfg.records,
		Stored:         stored,
		Failed:         failed,
		ElapsedSeconds: elapsed.Seconds(),
		Stages:         clientStages(reg, remote),
	}
	if elapsed > 0 {
		sum.RecordsPerSec = float64(stored) / elapsed.Seconds()
	}
	if reads.total > 0 {
		sum.Reads = &readSummary{
			Total:  reads.total,
			Hits:   reads.hits,
			Misses: reads.misses,
			Wrong:  reads.wrong,
			P50ms:  reads.lat.Percentile(50) * 1000,
			P95ms:  reads.lat.Percentile(95) * 1000,
		}
	}
	statusz, err := scrapeStatusz(cfg.adminBook)
	if err != nil {
		return err
	}
	sum.Statusz = statusz
	bloom, err := scrapeBloom(cfg.adminBook)
	if err != nil {
		return err
	}
	sum.Bloom = bloom
	enc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.statsOut, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("run summary written to %s\n", cfg.statsOut)
	return nil
}
