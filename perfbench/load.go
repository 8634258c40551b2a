package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"time"
)

// sample is one completed request of the timed window.
type sample struct {
	class string // click answer walk read update
	lat   time.Duration
	done  time.Time
}

// recorder collects one client goroutine's samples; merged after the run.
type recorder struct {
	samples []sample
	tally   tally
	runs    []runCheck
	timings []sendTiming // open-loop sends
}

// window is the timed part of a run: requests completing before from are
// warm-up and do not count towards latency or throughput.
type window struct {
	from, to time.Time
}

func (w window) in(t time.Time) bool { return !t.Before(w.from) && t.Before(w.to) }

// classify maps a reply to tally outcomes: 503 is an admission refusal,
// any other non-2xx or transport error a failure. The first few of each
// client are printed to stderr.
func (rec *recorder) classify(r reply) bool {
	rec.tally.attempted++
	switch {
	case r.err != nil:
		rec.tally.failed++
	case r.status == http.StatusServiceUnavailable:
		rec.tally.refused++
	case r.status/100 != 2:
		rec.tally.failed++
	default:
		return true
	}
	if rec.tally.failed+rec.tally.refused <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: request failed: status %d: %v: %.300s\n", r.status, r.err, r.body)
	}
	return false
}

// exploreLoop plays fresh users back to back on one connection (closed
// loop) until the window ends. ids makes session ids unique per client.
// afterStep, if set, runs after every successful step on the same
// connection.
func exploreLoop(c *client, rng *rand.Rand, ids string, w window, rec *recorder, afterStep func()) {
	for n := 0; time.Now().Before(w.to); n++ {
		u := newUser(fmt.Sprintf("%s-%d", ids, n), rng)
		walkStart, complete := time.Now(), true
		for time.Now().Before(w.to) {
			a, ok := u.next()
			if !ok {
				break
			}
			method, path, body := a.request()
			start := time.Now()
			r := c.do(method, path, u.id, "application/json", body)
			done := time.Now()
			good := rec.classify(r)
			if w.in(done) {
				class := "click"
				if a.isAnswer() {
					class = "answer"
				}
				rec.samples = append(rec.samples, sample{class: class, lat: done.Sub(start), done: done})
			}
			if !good {
				complete = false
				break // the walk cannot continue from a failed step
			}
			if a.isAnswer() {
				rec.runs = append(rec.runs, runCheck{walk: append([]action(nil), u.history...), answer: r.body})
			}
			u.observe(a, r.body)
			if afterStep != nil {
				afterStep()
			}
		}
		// A walk counts when it ran entirely inside the window.
		if end := time.Now(); complete && u.step == len(u.plan) && !walkStart.Before(w.from) && w.in(end) {
			rec.samples = append(rec.samples, sample{class: "walk", lat: end.Sub(walkStart), done: end})
		}
	}
}

// invariantReader sends mixed-write's invariant reads on client A's
// connection, one after every readEvery walk steps. They run concurrently
// with client B's re-ratings, so a read can see one half applied.
type invariantReader struct {
	c     *client
	rec   *recorder
	w     window
	want  int // the laptop count
	steps int
	reads int
	torn  int // reads whose count differed from want
	bad   int // reads whose result was not a one-row count
}

func (ir *invariantReader) afterStep() {
	ir.steps++
	if ir.steps%readEvery != 0 {
		return
	}
	q := invariantReads[ir.reads%len(invariantReads)]
	ir.reads++
	start := time.Now()
	r := ir.c.do("POST", "/sparql", "", "application/sparql-query", []byte(q))
	done := time.Now()
	if ir.rec.classify(r) {
		n, err := countValue(r.body)
		switch {
		case err != nil:
			ir.bad++
			ir.rec.tally.wrong++
		case n != ir.want:
			ir.torn++
			ir.rec.tally.torn++
		}
	}
	if ir.w.in(done) {
		ir.rec.samples = append(ir.rec.samples, sample{class: "read", lat: done.Sub(start), done: done})
	}
}

// scheduled is one open-loop re-rating with its due offset from the start.
type scheduled struct {
	due time.Duration
	upd reRating
}

// openLoopSend sends every re-rating of sched at its due time on one
// connection; those due after the window ends are not sent. onAck sees
// each acknowledged re-rating in send order.
func openLoopSend(c *client, sched []scheduled, t0 time.Time, w window, rec *recorder, onAck func(reRating)) {
	free := t0
	for _, s := range sched {
		due := t0.Add(s.due)
		if !due.Before(w.to) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		r := c.do("POST", "/sparql", "", "application/sparql-update", []byte(s.upd.text))
		done := time.Now()
		if rec.classify(r) {
			onAck(s.upd)
		}
		st := sendTiming{due: due, free: free, sent: sent, done: done}
		free = done
		if w.in(done) {
			rec.timings = append(rec.timings, st)
			rec.samples = append(rec.samples, sample{class: "update", lat: st.latency(), done: done})
		}
	}
}

// countValue extracts ?n from a one-row COUNT result.
func countValue(body []byte) (int, error) {
	var res struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, err
	}
	if len(res.Results.Bindings) != 1 {
		return 0, fmt.Errorf("%d rows", len(res.Results.Bindings))
	}
	return strconv.Atoi(res.Results.Bindings[0]["n"].Value)
}

// merge folds client records into one.
func merge(recs []*recorder) *recorder {
	out := &recorder{}
	for _, r := range recs {
		out.samples = append(out.samples, r.samples...)
		out.runs = append(out.runs, r.runs...)
		out.timings = append(out.timings, r.timings...)
		out.tally.attempted += r.tally.attempted
		out.tally.failed += r.tally.failed
		out.tally.refused += r.tally.refused
		out.tally.wrong += r.tally.wrong
		out.tally.torn += r.tally.torn
	}
	return out
}

// keepSlices drops the samples that completed in a slice of w not marked
// in keep, and returns the measured seconds that remain.
func (rec *recorder) keepSlices(w window, keep []bool) float64 {
	_, each := w.slices()
	out := rec.samples[:0]
	for _, s := range rec.samples {
		if keep[min(int(s.done.Sub(w.from)/each), len(keep)-1)] {
			out = append(out, s)
		}
	}
	rec.samples = out
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	return float64(n) * each.Seconds()
}

// latencies returns the latencies in ms of the samples of the given classes.
func (rec *recorder) latencies(classes ...string) []float64 {
	var out []float64
	for _, s := range rec.samples {
		for _, c := range classes {
			if s.class == c {
				out = append(out, ms(s.lat))
			}
		}
	}
	return out
}

// generatorLateness summarizes how late the open-loop senders ran: the
// share of sends more than lateLimit behind what the schedule and the
// server allowed, and the p99 of that lateness in ms.
func (rec *recorder) generatorLateness() (share, p99 float64) {
	ts := rec.timings
	if len(ts) == 0 {
		return 0, 0
	}
	late := make([]float64, len(ts))
	n := 0
	for i, t := range ts {
		late[i] = ms(t.generatorLate())
		if t.generatorLate() > lateLimit {
			n++
		}
	}
	return float64(n) / float64(len(ts)), quantile(late, 0.99)
}

// lateLimit and maxLateShare reject a run whose load generator fell behind:
// more than 5% of sends leaving over 10 ms after they could have. Timer
// wake-ups on a host whose vCPUs are stolen run a few ms late now and then;
// a generator that cannot keep its schedule misses it on many sends.
const (
	lateLimit    = 10 * time.Millisecond
	maxLateShare = 0.05
)
