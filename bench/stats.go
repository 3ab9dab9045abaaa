package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample floors: a p50 is taken over at least minP50 samples and a p95
// over at least minP95 (ten beyond the percentile). A run too small for
// one group of that size is an error, never a silent number.
const (
	minP50 = 50
	minP95 = 200
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the samples at
// or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 0.95*200 = 190.00000000000003 from ranking 191.
	rank := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value of vs (mean of the two middle values for
// an even count). vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of vs.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// groups pools adjacent rounds until every group holds at least min
// samples. A round that is large enough is its own group; a trailing
// remainder joins the last group, so no sample is dropped. It fails when
// the whole run holds fewer than min samples.
func groups(rounds [][]float64, min int) ([][]float64, error) {
	var out [][]float64
	var cur []float64
	total := 0
	for _, r := range rounds {
		total += len(r)
		cur = append(cur, r...)
		if len(cur) >= min {
			out = append(out, cur)
			cur = nil
		}
	}
	if total < min || min < 1 {
		return nil, fmt.Errorf("%d samples over %d rounds, percentile needs %d", total, len(rounds), min)
	}
	if len(cur) > 0 {
		out[len(out)-1] = append(out[len(out)-1], cur...)
	}
	return out, nil
}

// overRounds is the benchmark's latency statistic: the q-quantile of each
// round (of each group of adjacent rounds where one round has fewer than
// min samples), then the median over rounds. A stall that recurs in most
// rounds moves it; a single disturbed round does not.
func overRounds(rounds [][]float64, q float64, min int) (float64, error) {
	gs, err := groups(rounds, min)
	if err != nil {
		return 0, err
	}
	per := make([]float64, len(gs))
	for i, g := range gs {
		s := append([]float64(nil), g...)
		sort.Float64s(s)
		per[i] = percentile(s, q)
	}
	return median(per), nil
}

// flatten concatenates rounds into one sorted sample (for the ungated
// whole-run p99 and max).
func flatten(rounds [][]float64) []float64 {
	var all []float64
	for _, r := range rounds {
		all = append(all, r...)
	}
	sort.Float64s(all)
	return all
}

// schedule is an open-loop arrival schedule: operation i is due at
// start + i/rate, whatever the system under test is doing.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, rate float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / rate)}
}

// due returns when operation i is due.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// account closes the books on operation i: latency runs from the due time
// (so the wait a stall imposes on later operations is counted), and late
// is how far behind its due time the generator issued it (0 when on time).
func (s schedule) account(i int, issued, done time.Time) (latency, late time.Duration) {
	due := s.due(i)
	late = issued.Sub(due)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
