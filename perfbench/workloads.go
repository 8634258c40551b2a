package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Workload parameters. Client B's re-rating rate stays well below what the
// server sustains, so that queueing stays bounded through the host's slow
// periods and a regression shows as latency rather than as a backlog.
const (
	warmup     = 2 * time.Second
	setupRuns  = 15
	updateRate = 20.0 // client B re-ratings per second (one connection)
	makerShare = 0.2  // share of re-ratings that cover a whole manufacturer
	readEvery  = 2    // client A sends an invariant read after every readEvery walk steps
	checkpoint = 2 * time.Second
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	server   string // server binary
	dir      string // scratch directory of this run
}

// outcome is what a workload run reports: metrics in the order printed,
// the request tally and whether the correctness gate passed.
type outcome struct {
	names   []string
	metrics map[string]metric
	tally   tally
	correct bool
	notes   []string // why the gate failed, printed to stderr
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}, correct: true} }

func (o *outcome) put(name string, v float64, unit string) {
	if _, ok := o.metrics[name]; !ok {
		o.names = append(o.names, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// latencyPair reports the median and the tail (the highest percentile up
// to limit that keeps ten samples beyond it) of xs under name.
func (o *outcome) latencyPair(name string, xs []float64, limit float64) (p50, tail float64) {
	q := tailQuantile(len(xs), limit)
	p50 = quantile(xs, 0.5)
	tail = quantile(xs, q)
	o.put(name+"_p50_ms", p50, "ms")
	o.put(fmt.Sprintf("%s_p%s_ms", name, pct(q)), tail, "ms")
	o.put(name+"_mean_ms", mean(xs), "ms")
	o.put(name+"_samples", float64(len(xs)), "count")
	return p50, tail
}

func pct(q float64) string {
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", q*100), "0"), ".")
}

// bootServer starts the server setupRuns times, stopping all but the last,
// and returns the last with the median set-up time. fresh, if set, runs
// before each start (mixed-write empties its data directory so each start
// bootstraps the same way).
func bootServer(cfg config, args []string, fresh func() error) (*serverProc, float64, error) {
	var setups []float64
	var p *serverProc
	for i := range setupRuns {
		if fresh != nil {
			if err := fresh(); err != nil {
				return nil, 0, err
			}
		}
		var err error
		if p, err = startServer(cfg.server, filepath.Join(cfg.dir, "server.log"), args); err != nil {
			return nil, 0, err
		}
		setups = append(setups, p.setup.Seconds())
		if i < setupRuns-1 {
			p.stop()
		}
	}
	return p, median(setups), nil
}

// timedWindow starts now: warm-up first, then d measured.
func timedWindow(d time.Duration) (time.Time, window) {
	t0 := time.Now()
	return t0, window{from: t0.Add(warmup), to: t0.Add(warmup + d)}
}

// phase is one closed-loop explore phase: its merged record, the steal
// share of each slice, the slices kept and the measured seconds in them.
type phase struct {
	rec   *recorder
	steal []float64
	keep  []bool
	secs  float64
}

// explorePhase plays clients closed-loop user streams against base for a
// fresh window of length d.
func explorePhase(cfg config, base string, clients int, d time.Duration) (*phase, error) {
	_, w := timedWindow(d)
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = &recorder{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(10*clients+i)))
			exploreLoop(c, rng, fmt.Sprintf("c%d-u%d", clients, i), w, recs[i], nil)
		}()
	}
	steal, err := watchSteal(w)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	ph := &phase{rec: merge(recs), steal: steal, keep: quietSlices(steal)}
	ph.secs = ph.rec.keepSlices(w, ph.keep)
	return ph, nil
}

// steps is the phase's completed session requests per measured second.
func (ph *phase) steps() float64 {
	return float64(len(ph.rec.latencies("click", "answer"))) / ph.secs
}

// runExplore measures the first third of the window with one client and
// the rest with two; comparing the phases shows how far session
// throughput scales with a second client under the server-wide session
// lock. The gated click median comes from the one-client phase: with two
// clients a click either waits for the other's request or not, about half
// of them each way, so their median jumps between the two modes from run
// to run. The gated tail, walk time and throughput come from the
// two-client phase.
func runExplore(cfg config) (*outcome, error) {
	ds, err := makeDataset(cfg.dir, cfg.seed, false)
	if err != nil {
		return nil, err
	}
	p, setup, err := bootServer(cfg, []string{"-data", ds.path}, nil)
	if err != nil {
		return nil, err
	}
	defer p.kill()
	total := time.Duration(cfg.seconds) * time.Second
	one, err := explorePhase(cfg, p.base, 1, total/3)
	if err != nil {
		return nil, err
	}
	two, err := explorePhase(cfg, p.base, 2, total-total/3)
	if err != nil {
		return nil, err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return nil, err
	}
	p.stop()
	rec := merge([]*recorder{one.rec, two.rec})
	o := newOutcome()
	ref, err := loadGraph(ds.path)
	if err != nil {
		return nil, err
	}
	wrong, checked, err := checkAnswers(ref, rec.runs, nil)
	if err != nil {
		return nil, err
	}
	rec.tally.wrong += wrong
	if wrong > 0 {
		o.fail("explore: %d of %d /api/run answers differ from the in-process reference", wrong, len(rec.runs))
	}
	o.put("setup_s", setup, "s")
	_, ctail := o.latencyPair("click", two.rec.latencies("click"), 0.95)
	c50, _ := o.latencyPair("click_1c", one.rec.latencies("click"), 0.95)
	o.latencyPair("answer", two.rec.latencies("answer"), 0.9)
	w50, _ := o.latencyPair("walk", two.rec.latencies("walk"), 0.9)
	steps, steps1 := two.steps(), one.steps()
	o.put("steps_per_s", steps, "1/s")
	o.put("steps_per_s_1c", steps1, "1/s")
	o.put("client_scaling", steps/steps1, "ratio")
	o.put("rss_mb", rss, "MB")
	o.put("triples", float64(ds.triples), "count")
	o.put("answers_checked", float64(checked), "count")
	o.steal(two.steal, two.keep)
	o.tally = rec.tally
	o.put("error_ratio", rec.tally.errorRatio(), "ratio")
	o.e2e(c50, ctail, w50, steps)
	return o, nil
}

// e2e fills the workload-independent end-to-end metrics the benchmark
// gates on. Each workload maps its own request classes onto them:
//
//	main_p50_ms, main_tail_ms  explore: click p50 with one client, click
//	                           tail with two; mixed-write: clicks under
//	                           concurrent writes
//	second_ms                  explore: walk p50; mixed-write: update tail
//	ops_per_s                  completed requests per second, all clients
func (o *outcome) e2e(mainP50, mainTail, second, ops float64) {
	o.put("main_p50_ms", mainP50, "ms")
	o.put("main_tail_ms", mainTail, "ms")
	o.put("second_ms", second, "ms")
	o.put("ops_per_s", ops, "1/s")
}

// steal reports how much CPU the host stole during the window and over
// the slices the metrics were computed on.
func (o *outcome) steal(shares []float64, keep []bool) {
	var kept []float64
	for i, s := range shares {
		if keep[i] {
			kept = append(kept, s)
		}
	}
	o.put("steal_share", mean(shares), "ratio")
	o.put("steal_share_kept", mean(kept), "ratio")
	o.put("slices_kept", float64(len(kept)), "count")
	o.put("slices", float64(len(shares)), "count")
}

// lateness reports how late the open-loop generator ran and fails the run
// when it fell behind its own schedule: then the latencies would describe
// the client, not the server.
func (o *outcome) lateness(rec *recorder) {
	share, p99 := rec.generatorLateness()
	o.put("gen_late_p99_ms", p99, "ms")
	o.put("gen_late_share", share, "ratio")
	if share > maxLateShare {
		o.fail("load generator fell behind: %.1f%% of sends more than %v late", share*100, lateLimit)
	}
}

// runMixedWrite runs one closed-loop walk stream (client A), which also
// sends the invariant reads between its steps, against open-loop
// re-ratings (client B) on a durable server. A's reads do not take the
// session lock, so they overlap B's updates.
func runMixedWrite(cfg config) (*outcome, error) {
	ds, err := makeDataset(cfg.dir, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(cfg.dir, "data")
	args := []string{"-data", ds.path, "-data-dir", dataDir, "-wal-sync", "batch",
		"-checkpoint-interval", checkpoint.String()}
	p, setup, err := bootServer(cfg, args, func() error { return os.RemoveAll(dataDir) })
	if err != nil {
		return nil, err
	}
	defer func() { p.kill() }()

	rng := rand.New(rand.NewSource(cfg.seed))
	sched := make([]scheduled, int(updateRate*(warmup.Seconds()+float64(cfg.seconds))))
	for i := range sched {
		sched[i] = scheduled{due: time.Duration(float64(i) / updateRate * float64(time.Second)), upd: newReRating(ds, rng, makerShare)}
	}
	want := map[string]int{}
	for l, r := range ds.rating {
		want[l] = r
	}
	acked := 0
	t0, w := timedWindow(time.Duration(cfg.seconds) * time.Second)
	recA, recB := &recorder{}, &recorder{}
	reader := &invariantReader{rec: recA, w: w, want: len(ds.laptops)}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient(p.base)
		defer c.close()
		reader.c = c
		exploreLoop(c, rand.New(rand.NewSource(cfg.seed*1000)), "a", w, recA, reader.afterStep)
	}()
	go func() {
		defer wg.Done()
		c := newClient(p.base)
		defer c.close()
		openLoopSend(c, sched, t0, w, recB, func(u reRating) {
			u.apply(want, ds)
			acked++
		})
	}()
	steal, err := watchSteal(w)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return nil, err
	}
	// Crash the server and restart it on the same data directory: every
	// acknowledged re-rating must have survived.
	p.kill()
	restart, err := startServer(cfg.server, filepath.Join(cfg.dir, "server.log"), args)
	if err != nil {
		return nil, err
	}
	p = restart
	lost, err := lostUpdates(p.base, want)
	if err != nil {
		return nil, err
	}
	p.stop()

	keep := quietSlices(steal)
	secs := recA.keepSlices(w, keep)
	recB.keepSlices(w, keep)
	rec := merge([]*recorder{recA, recB})
	o := newOutcome()
	ref, err := loadGraph(ds.path)
	if err != nil {
		return nil, err
	}
	rating := ns + "rating"
	wrong, checked, err := checkAnswers(ref, recA.runs, func(walk []action) bool {
		for _, a := range walk {
			if a.mentions(rating) {
				return true
			}
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	rec.tally.wrong += wrong + lost
	if wrong > 0 {
		o.fail("mixed-write: %d /api/run answers differ from the in-process reference", wrong)
	}
	if reader.bad > 0 {
		o.fail("mixed-write: %d invariant reads did not return a one-row count", reader.bad)
	}
	if lost > 0 {
		o.fail("mixed-write: %d laptops lost an acknowledged re-rating across kill -9", lost)
	}
	// Torn reads are the seed's known defect (an update applies triple by
	// triple while reads run on the live graph). They count as wrong
	// answers in error_ratio and are reported as their share, but are not
	// failed operations and do not fail the run.
	updates, clicks := recB.latencies("update"), recA.latencies("click")
	reads := recA.latencies("read")
	o.put("setup_s", setup, "s")
	_, utail := o.latencyPair("update", updates, 0.95)
	c50, ctail := o.latencyPair("click", clicks, 0.95)
	o.latencyPair("query", reads, 0.99)
	o.latencyPair("answer", recA.latencies("answer"), 0.9)
	o.latencyPair("walk", recA.latencies("walk"), 0.9)
	steps := len(clicks) + len(recA.latencies("answer"))
	ops := float64(steps+len(updates)+len(reads)) / secs
	o.put("steps_per_s", float64(steps)/secs, "1/s")
	o.put("rss_mb", rss, "MB")
	o.put("restart_s", p.setup.Seconds(), "s")
	o.put("triples", float64(ds.triples), "count")
	o.put("updates_acked", float64(acked), "count")
	o.put("invariant_reads", float64(reader.reads), "count")
	o.put("torn_reads", float64(reader.torn), "count")
	o.put("torn_read_share", float64(reader.torn)/float64(max(reader.reads, 1)), "ratio")
	o.put("answers_checked", float64(checked), "count")
	o.steal(steal, keep)
	o.lateness(recB)
	o.tally = rec.tally
	o.put("error_ratio", rec.tally.errorRatio(), "ratio")
	o.e2e(c50, ctail, utail, ops)
	return o, nil
}

// lostUpdates reads every rating back from a restarted server and counts
// the laptops whose rating differs from what the acknowledged updates set.
func lostUpdates(base string, want map[string]int) (int, error) {
	c := newClient(base)
	defer c.close()
	r := c.do("POST", "/sparql", "", "application/sparql-query", []byte(prefix+"SELECT ?l ?r WHERE { ?l ex:rating ?r }"))
	if r.err != nil || r.status != 200 {
		return 0, fmt.Errorf("read ratings after restart: status %d: %v", r.status, r.err)
	}
	var res struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(r.body, &res); err != nil {
		return 0, err
	}
	got := map[string]string{}
	for _, b := range res.Results.Bindings {
		got[b["l"].Value] = b["r"].Value
	}
	lost := 0
	for l, r := range want {
		if got[l] != fmt.Sprint(r) {
			lost++
		}
	}
	return lost + max(len(got)-len(want), 0), nil
}
