package main

import (
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		limit float64
		want  float64
	}{
		{2000, 0.999, 0.99}, // p99.9 would leave 2 beyond
		{1000, 0.999, 0.99}, // p99: rank 990 -> index 989, 10 beyond
		{999, 0.999, 0.95},  // p99: rank 990 of 999 leaves 9 beyond
		{200, 0.99, 0.95},   // 190th is index 189, 10 beyond
		{199, 0.99, 0.9},
		{100, 0.99, 0.9},
		{100, 0.95, 0.9},
		{20000, 0.95, 0.95}, // capped by the workload's limit
		{30, 0.99, 0.5},     // too few for any tail
	}
	for _, c := range cases {
		if got := tailQuantile(c.n, c.limit); got != c.want {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(append([]float64(nil), xs...), 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0.9); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if got := median(xs); got != 3 || xs[0] != 5 {
		t.Errorf("median copies: got %v, xs %v", got, xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestOpenLoopLatencyCountsFromDue(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	// Due at 10, sender busy until 40 with a slow earlier request, sent at
	// 41, done at 50: 40 ms of latency, 1 ms of it the generator's fault.
	st := sendTiming{due: at(10), free: at(40), sent: at(41), done: at(50)}
	if got := st.latency(); got != 40*time.Millisecond {
		t.Errorf("latency = %v, want 40ms", got)
	}
	if got := st.generatorLate(); got != time.Millisecond {
		t.Errorf("generatorLate = %v, want 1ms", got)
	}
	// Sender idle since 0, request due at 10 but sent at 16: the generator
	// overslept by 6 ms, which also counts in the latency.
	st = sendTiming{due: at(10), free: at(0), sent: at(16), done: at(20)}
	if st.latency() != 10*time.Millisecond || st.generatorLate() != 6*time.Millisecond {
		t.Errorf("oversleep: latency %v late %v", st.latency(), st.generatorLate())
	}
	// Sent early never reads as negative lateness.
	st = sendTiming{due: at(10), free: at(0), sent: at(9), done: at(12)}
	if st.generatorLate() != 0 {
		t.Errorf("early send late = %v", st.generatorLate())
	}
}

func TestErrorRatioCountsFailedRefusedAndWrong(t *testing.T) {
	tl := tally{attempted: 200, failed: 3, refused: 2, wrong: 3, torn: 2}
	if got := tl.errorRatio(); got != 0.05 {
		t.Errorf("errorRatio = %v, want 0.05", got)
	}
	// Torn reads are wrong answers in error_ratio but not failed operations.
	if got := tl.bad(); got != 8 {
		t.Errorf("bad = %d, want 8", got)
	}
	if (tally{}).errorRatio() != 0 {
		t.Error("empty tally must read 0")
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// server(10) -> core(8) -> facet(3) + facet(4); core self = 1, server
	// self = 2, and the root's one child covers 8 of its 10 ms.
	spans := []span{
		{layer: "server", parent: -1, dur: d(10)},
		{layer: "core", parent: 0, dur: d(8)},
		{layer: "facet", parent: 1, dur: d(3)},
		{layer: "facet", parent: 1, dur: d(4)},
	}
	self := selfTimes(spans)
	want := []time.Duration{d(2), d(1), d(3), d(4)}
	var sum time.Duration
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != spans[0].dur {
		t.Errorf("self times sum to %v, want the root's %v", sum, spans[0].dur)
	}
	if c := covered(spans); c != d(8) {
		t.Errorf("covered = %v, want 8ms", c)
	}
	// Replayed children that overrun their parent floor its self time at
	// zero and cover more than the request took.
	spans = []span{
		{layer: "server", parent: -1, dur: d(10)},
		{layer: "core", parent: 0, dur: d(7)},
		{layer: "sparql", parent: 0, dur: d(5)},
	}
	self = selfTimes(spans)
	if self[0] != 0 || self[1] != d(7) || self[2] != d(5) {
		t.Errorf("overrun self = %v", self)
	}
	if c := covered(spans); c != d(12) {
		t.Errorf("overrun covered = %v, want 12ms", c)
	}
}

func TestQuietSlicesDropsStolenSlices(t *testing.T) {
	got := quietSlices([]float64{0, 0.2, 0.01, 0.3, 0.5, 0.05})
	want := []bool{true, false, true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quietSlices = %v, want %v", got, want)
		}
	}
	// Fewer than half quiet: the least-stolen half is kept instead.
	got = quietSlices([]float64{0.2, 0.3, 0.1, 0.4})
	want = []bool{true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quietSlices = %v, want %v", got, want)
		}
	}
}
