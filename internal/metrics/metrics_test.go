package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestStatsBasic(t *testing.T) {
	s := NewStats()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != 3 {
		t.Fatalf("Mean = %f", got)
	}
	if got := s.Min(); got != 1 {
		t.Fatalf("Min = %f", got)
	}
	if got := s.Max(); got != 5 {
		t.Fatalf("Max = %f", got)
	}
	if got := s.Std(); math.Abs(got-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("Std = %f, want sqrt(2)", got)
	}
}

func TestStatsEmpty(t *testing.T) {
	s := NewStats()
	if s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty stats must report zeros")
	}
}

func TestStatsPercentiles(t *testing.T) {
	s := NewStats()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%.0f = %f, want %f", c.p, got, c.want)
		}
	}
}

func TestStatsPercentileMonotonic(t *testing.T) {
	err := quick.Check(func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewStats()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		last := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			cur := s.Percentile(p)
			if cur < last {
				return false
			}
			last = cur
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsMinLEMeanLEMax(t *testing.T) {
	err := quick.Check(func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewStats()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
			s.Add(v)
		}
		return s.Min() <= s.Mean()+1e-6 && s.Mean() <= s.Max()+1e-6
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsAddDuration(t *testing.T) {
	s := NewStats()
	s.AddDuration(2 * time.Second)
	if s.Mean() != 2 {
		t.Fatalf("duration recorded as %f seconds", s.Mean())
	}
}

func TestStatsSummaryString(t *testing.T) {
	s := NewStats()
	s.Add(1)
	out := s.Summary()
	if !strings.Contains(out, "n=1") || !strings.Contains(out, "mean=1") {
		t.Fatalf("summary %q", out)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("size_kb", "time_s")
	tbl.AddRow(16.0, 0.001)
	tbl.AddRow(1024.0, 0.25)
	var b strings.Builder
	tbl.Render(&b)
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("table has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "size_kb") {
		t.Fatalf("header line %q", lines[0])
	}
}

func TestStatsConcurrentAdd(t *testing.T) {
	s := NewStats()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				s.Add(1)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s.N() != 8000 {
		t.Fatalf("N = %d, want 8000", s.N())
	}
}
