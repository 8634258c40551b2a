package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p99 from 200 samples rests on two values and is not reported.
const minBeyond = 10

// tailCandidates are the tail percentiles considered, highest first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tailQuantile returns the highest candidate percentile, at most limit,
// that leaves at least minBeyond of n samples above it, or 0.5 when none
// does.
func tailQuantile(n int, limit float64) float64 {
	for _, q := range tailCandidates {
		if q > limit {
			continue
		}
		if n-rankIndex(n, q)-1 >= minBeyond {
			return q
		}
	}
	return 0.5
}

// rankIndex is the nearest-rank index of quantile q in n sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place), or
// 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankIndex(len(xs), q)]
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sendTiming is one open-loop request: when the schedule wanted it sent,
// when the sender was free to send it (its previous request had completed),
// when it was sent and when its response completed.
type sendTiming struct {
	due, free, sent, done time.Time
}

// latency is the request's latency counted from when it was due, so a stall
// that delays later sends shows in their latency instead of vanishing from
// the sample (coordinated omission).
func (t sendTiming) latency() time.Duration { return t.done.Sub(t.due) }

// generatorLate is how late the load generator itself sent the request: the
// part of the delay after the request was due that the sender cannot blame
// on the server, because its previous request had already completed.
func (t sendTiming) generatorLate() time.Duration {
	ready := t.due
	if t.free.After(ready) {
		ready = t.free
	}
	return max(t.sent.Sub(ready), 0)
}

// tally counts the outcomes of one workload's requests.
type tally struct {
	attempted int
	failed    int // transport errors and non-2xx answers other than refusals
	refused   int // 503 admission refusals
	wrong     int // answers that disagree with the reference or an invariant
	// torn counts mixed-write's invariant reads that saw a re-rating half
	// applied: wrong answers from the seed's known race, whose number
	// varies from run to run. They are measured (torn_read_share,
	// error_ratio), not counted as failed operations.
	torn int
}

// bad is every request that failed, was refused or answered wrongly,
// torn reads aside: the result line's failed.
func (t tally) bad() int { return t.failed + t.refused + t.wrong }

// errorRatio is (failed + refused + wrong answers) / attempted, torn
// reads included among the wrong answers.
func (t tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.bad()+t.torn) / float64(t.attempted)
}

// span is one timed call in the traced run. Children of a span are the
// calls into the next layer down for the same request; when an outer call
// hides an inner layer, the inner layer's public function is timed on the
// same input and charged as the child.
type span struct {
	layer  string
	name   string
	parent int // index into the trace's spans, -1 for a request's root
	dur    time.Duration
}

// selfTimes returns each span's self time: its duration minus its
// children's durations, floored at zero. Children measured on a replay can
// take longer than the parent they are charged to; the floor keeps such a
// span from claiming negative time, and the excess shows in covered.
func selfTimes(spans []span) []time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = max(s.dur-child[i], 0)
	}
	return self
}

// covered is the summed duration of the root's direct children: the part
// of the request the replayed layer calls account for. The rest of the
// root's time is the server's self time, which therefore also holds any
// work no replayed call covers; a request whose children overran it reads
// above its own duration.
func covered(spans []span) time.Duration {
	var sum time.Duration
	for _, s := range spans {
		if s.parent >= 0 && spans[s.parent].parent < 0 {
			sum += s.dur
		}
	}
	return sum
}
