// Package metrics provides the small measurement kit the commands,
// benchmarks and explorer report with: sample statistics with exact
// percentiles, event counters and aligned table output. What a running
// deployment exports (/metrics, /statusz, traces) lives in internal/obs.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Stats accumulates scalar samples and reports summary statistics. It keeps
// every sample so exact percentiles are available; the evaluation workloads
// are small enough that this is cheap. Stats is safe for concurrent use.
type Stats struct {
	mu      sync.Mutex
	samples []float64
	sum     float64
	sumSq   float64
	min     float64
	max     float64
}

// NewStats returns an empty Stats collector.
func NewStats() *Stats {
	return &Stats{min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one sample.
func (s *Stats) Add(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, v)
	s.sum += v
	s.sumSq += v * v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// AddDuration records a duration sample in seconds.
func (s *Stats) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of samples.
func (s *Stats) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Mean returns the sample mean, or 0 for an empty collector.
func (s *Stats) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Std returns the population standard deviation, or 0 for fewer than two
// samples.
func (s *Stats) Std() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := float64(len(s.samples))
	if n < 2 {
		return 0
	}
	mean := s.sum / n
	v := s.sumSq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest sample, or 0 when empty.
func (s *Stats) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample, or 0 when empty.
func (s *Stats) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	return s.max
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. Returns 0 when empty.
func (s *Stats) Percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.samples...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Samples returns a copy of all recorded samples.
func (s *Stats) Samples() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.samples...)
}

// Summary renders a one-line human-readable summary.
func (s *Stats) Summary() string {
	return fmt.Sprintf("n=%d mean=%.6g std=%.6g min=%.6g p50=%.6g p95=%.6g max=%.6g",
		s.N(), s.Mean(), s.Std(), s.Min(), s.Percentile(50), s.Percentile(95), s.Max())
}
