package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	twoHundred := make([]float64, 200)
	for i := range twoHundred {
		twoHundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"p50 of 1..100", hundred, 0.50, 50},
		{"p95 of 1..100", hundred, 0.95, 95},
		{"p99 of 1..100", hundred, 0.99, 99},
		{"p100 is the max", hundred, 1, 100},
		{"p95 of 1..200 leaves ten beyond", twoHundred, 0.95, 190},
		{"single sample", []float64{7}, 0.95, 7},
		{"p50 of two is the lower", []float64{1, 2}, 0.5, 1},
		{"empty", nil, 0.5, 0},
	} {
		if got := percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("odd count: got %v, want 4", got)
	}
	if in[0] != 5 || in[1] != 1 || in[2] != 4 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
}

// A memtable fills over four records and is flushed: whichever four
// consecutive states a run happens to read, the mean is the same.
func TestMeanOverOneCycleDoesNotDependOnThePhase(t *testing.T) {
	cycle := []float64{44, 46, 48, 50}
	for phase := 0; phase < 4; phase++ {
		var seen []float64
		for i := 0; i < 4; i++ {
			seen = append(seen, cycle[(phase+i)%4])
		}
		if got := mean(seen); got != 47 {
			t.Errorf("phase %d: mean %v, want 47", phase, got)
		}
	}
	if got := mean(nil); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
}

// rounds builds n rounds of size samples each; round i holds the value
// base(i) throughout.
func rounds(n, size int, base func(i int) float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, size)
		for j := range out[i] {
			out[i][j] = base(i)
		}
	}
	return out
}

func TestGroupsPoolAdjacentRounds(t *testing.T) {
	// Five rounds of 100 samples and a floor of 200: rounds pool in pairs,
	// and the odd round left over joins the last group rather than being
	// dropped.
	gs, err := groups(rounds(5, 100, func(i int) float64 { return float64(i) }), 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 || len(gs[0]) != 200 || len(gs[1]) != 300 {
		t.Fatalf("group sizes %v, want 200 and 300", sizes(gs))
	}
	if gs[0][0] != 0 || gs[0][199] != 1 || gs[1][0] != 2 || gs[1][299] != 4 {
		t.Errorf("groups do not hold the samples in the order taken")
	}
	// A round that is large enough is its own group, whatever its size.
	gs, err = groups(rounds(3, 250, func(int) float64 { return 0 }), 200)
	if err != nil || len(gs) != 3 || len(gs[0]) != 250 {
		t.Errorf("rounds of 250 with a floor of 200: sizes %v, err %v; want three of 250", sizes(gs), err)
	}
}

func sizes(groups [][]float64) []int {
	var out []int
	for _, g := range groups {
		out = append(out, len(g))
	}
	return out
}

func TestTooFewSamplesIsAnErrorNotANumber(t *testing.T) {
	if _, err := groups(rounds(3, 50, func(int) float64 { return 1 }), minP95); err == nil {
		t.Error("150 samples filled a group of 200")
	}
	v, err := overRounds(rounds(12, 10, func(int) float64 { return 1 }), 0.95, minP95)
	if err == nil {
		t.Errorf("120 samples gave a p95 of %v", v)
	}
	if _, err := overRounds(nil, 0.5, minP50); err == nil {
		t.Error("no rounds gave a p50")
	}
}

func TestOverRoundsIsTheMedianOfPerRoundQuantiles(t *testing.T) {
	// Round i holds 1..200 shifted by 1000*i: the per-round p95s are 190,
	// 1190, 2190, and the median over rounds is the middle one.
	rs := make([][]float64, 3)
	for i := range rs {
		for v := 1; v <= 200; v++ {
			rs[i] = append(rs[i], float64(v+1000*i))
		}
	}
	got, err := overRounds(rs, 0.95, minP95)
	if err != nil || got != 1190 {
		t.Errorf("got %v, err %v; want 1190", got, err)
	}
}

func TestOverRoundsSeesAStallThatRecursInMostRounds(t *testing.T) {
	// One round in five disturbed: the figure does not move.
	rs := rounds(5, 250, func(i int) float64 {
		if i == 2 {
			return 1.4
		}
		return 1
	})
	if got, err := overRounds(rs, 0.95, minP95); err != nil || got != 1 {
		t.Errorf("one disturbed round: got %v, err %v; want 1", got, err)
	}
	// A periodic stall — 15 slow operations in every round of 250, as a
	// compaction would cause — leaves every p50 alone and moves every p95.
	for i := range rs {
		for j := range rs[i] {
			rs[i][j] = 1
			if j%17 == 0 {
				rs[i][j] = 9
			}
		}
	}
	p50, _ := overRounds(rs, 0.50, minP50)
	p95, _ := overRounds(rs, 0.95, minP95)
	if p50 != 1 || p95 != 9 {
		t.Errorf("periodic stall: p50 %v p95 %v; want 1 and 9", p50, p95)
	}
}

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 40)
	if got := s.due(0); !got.Equal(start) {
		t.Errorf("first operation due %v, want the start", got)
	}
	if got := s.due(40).Sub(start); got != time.Second {
		t.Errorf("operation 40 at 40/s due after %v, want 1s", got)
	}
}

func TestScheduleCountsLatencyFromTheDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 100) // one every 10 ms
	at := func(d time.Duration) time.Time { return start.Add(d) }

	// On time: issued at its due time, served in 3 ms.
	lat, late := s.account(2, at(20*time.Millisecond), at(23*time.Millisecond))
	if lat != 3*time.Millisecond || late != 0 {
		t.Errorf("on time: latency %v late %v, want 3ms and 0", lat, late)
	}
	// The generator was stuck behind a 50 ms stall: operation 3 (due at
	// 30 ms) goes out at 70 ms and takes 3 ms. The caller waited 43 ms.
	lat, late = s.account(3, at(70*time.Millisecond), at(73*time.Millisecond))
	if lat != 43*time.Millisecond || late != 40*time.Millisecond {
		t.Errorf("late: latency %v late %v, want 43ms and 40ms", lat, late)
	}
	// Issued a hair early (timer slack): lateness never goes negative.
	_, late = s.account(4, at(40*time.Millisecond-time.Microsecond), at(41*time.Millisecond))
	if late != 0 {
		t.Errorf("early issue reported %v late", late)
	}
}

func TestUnitHelpers(t *testing.T) {
	if got := ms(1500 * time.Microsecond); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("ms: %v", got)
	}
	if got := us(1500 * time.Nanosecond); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("us: %v", got)
	}
}
