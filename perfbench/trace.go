package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"rdfanalytics/internal/core"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/resilience"
	"rdfanalytics/internal/server"
	"rdfanalytics/internal/sparql"
	"rdfanalytics/internal/store"
)

// The traced run replays the workload's seeded request sequence in process
// with one client. Every request goes through Server.ServeHTTP (the root
// span, layer server). Because the benchmark records spans from outside
// the program, the calls below the server are timed by replaying the same
// request on a mirror of the server's state: a second graph loaded from
// the same snapshot, with its own sessions, answer cache, admission gate
// and store. Each mirror call is a span charged as a child of the request;
// where one call hides another layer (ComputeUIState hides the facet
// model), the inner public function is timed again on the same input and
// charged as the child. Span names are the metric names' stems:
//
//	server.request         Server.ServeHTTP
//	core.click             Session.ClickClass/ClickValue/ClickRange/ClickGroupBy/ClickAggregate/Reset
//	core.load_answer       Session.LoadAnswerAsDataset
//	core.ui_state          Session.ComputeUIState
//	core.run               Session.RunAnalyticsCtx
//	facet.transition       Model.ClickClass/ClickValue/ClickRange
//	facet.class_facet      Model.ClassFacet
//	facet.property_facets  Model.PropertyFacets
//	facet.buckets          Model.NumericBuckets
//	hifun.execute          Context.ExecuteCtx
//	hifun.translate        Translator.Translate
//	sparql.parse           sparql.Parse
//	sparql.exec            sparql.ExecSelectCtx
//	sparql.write_json      Results.Sort + Results.WriteJSON
//	sparql.update          sparql.ExecUpdateCtx
//	resilience.lookup      AnswerCache.Lookup
//	resilience.admit_wait  Admission.Acquire
//	rdf.match_proxy        Graph.Match (object cards; each query pattern)
//	store.sync             Store.Sync
//	store.checkpoint       Store.Checkpoint (background, outside requests)
//
// The rdf spans are a proxy: the evaluator's own index scans happen inside
// sparql.ExecSelectCtx and cannot be timed from outside, so rdf.match_proxy
// times one Graph.Match per query pattern with only its constants bound,
// and the 50 object-card lookups of a UI state.
//
// Counts come from the server's own graph and store around each
// ServeHTTP: Graph.IndexScans, CardCacheStats, Version and Store.Stats.

// layers are the repository modules the per-layer metrics are named after.
var layers = []string{"server", "resilience", "core", "facet", "hifun", "sparql", "rdf", "store"}

var opClasses = []string{"click", "answer", "query", "update"}

// perLayer names the metrics the JSON line carries with -trace 1.
var perLayer = func() []string {
	out := []string{
		"server.self_ms.click", "server.self_ms.answer", "server.self_ms.query", "server.self_ms.update", "server.resp_kb.click",
		"resilience.hit_ratio", "resilience.lookup_ms", "resilience.admit_wait_ms", "resilience.refused",
		"core.click_ms", "core.ui_state_ms", "core.run_ms", "core.answer_reuse_ratio", "core.load_answer_ms",
		"facet.class_facet_ms", "facet.property_facets_ms", "facet.buckets_ms", "facet.transition_ms", "facet.allocs_per_state",
		"hifun.translate_ms", "hifun.execute_ms",
		"sparql.parse_ms", "sparql.exec_ms", "sparql.exec_allocs", "sparql.write_json_ms", "sparql.rows_per_result", "sparql.qerror_max", "sparql.update_ms",
		"rdf.index_scans_per_req.click", "rdf.index_scans_per_req.query", "rdf.card_cache_hit_ratio", "rdf.versions_per_update",
		"store.sync_ms", "store.wal_bytes_per_update", "store.checkpoint_ms", "store.checkpoints", "store.segment_bytes_per_triple", "store.restart_s",
	}
	for _, l := range layers {
		out = append(out, selfName(l))
	}
	for _, op := range opClasses {
		out = append(out, "trace.request_ms."+op, "trace.replay_ms."+op, "trace.coverage_pct."+op)
	}
	return out
}()

// selfName is the metric of a layer's mean self time per request; the rdf
// layer's is marked as a proxy.
func selfName(layer string) string {
	if layer == "rdf" {
		return "self_ms.rdf_proxy"
	}
	return "self_ms." + layer
}

// op is one request of a replayed sequence.
type op struct {
	class string // click answer query update
	act   action
	uid   string
	text  string
}

// stream yields a workload's seeded request sequence for one client; walk
// choices depend on the replies, which observe feeds back. In mixed-write
// an invariant read follows every readEvery walk steps, as client A sends
// them, and a re-rating follows two of every three steps: about the ratio
// of client B's 20 re-ratings/s to client A's 30 steps/s in the timed run.
type stream struct {
	workload string
	rng      *rand.Rand
	n        int
	u        *user
	ds       *dataset
	brng     *rand.Rand // mixed-write re-ratings
	steps    int        // walk steps issued
	reads    int
	pending  []op // mixed-write requests due before the next walk step
}

func newStream(cfg config, ds *dataset) *stream {
	return &stream{workload: cfg.workload, rng: rand.New(rand.NewSource(cfg.seed * 1000)), ds: ds,
		brng: rand.New(rand.NewSource(cfg.seed))}
}

func (st *stream) next() op {
	if len(st.pending) > 0 {
		x := st.pending[0]
		st.pending = st.pending[1:]
		return x
	}
	for {
		if st.u == nil {
			st.u = newUser(fmt.Sprintf("t-%d", st.n), st.rng)
			st.n++
		}
		a, ok := st.u.next()
		if !ok {
			st.u = nil
			continue
		}
		st.steps++
		if st.workload == "mixed-write" {
			if st.steps%readEvery == 0 {
				st.pending = append(st.pending, op{class: "query", text: invariantReads[st.reads%len(invariantReads)]})
				st.reads++
			}
			if st.steps%3 != 0 {
				st.pending = append(st.pending, op{class: "update", text: newReRating(st.ds, st.brng, makerShare).text})
			}
		}
		class := "click"
		if a.isAnswer() {
			class = "answer"
		}
		return op{class: class, act: a, uid: st.u.id}
	}
}

func (st *stream) observe(o op, body []byte) {
	if st.u != nil && o.uid == st.u.id {
		st.u.observe(o.act, body)
	}
}

// target is one in-process server with the graph and store behind it.
type target struct {
	srv *server.Server
	g   *rdf.Graph
	st  *store.Store
}

// newTarget builds a server configured as cmd/rdfanalytics configures it
// by default; with dataDir it bootstraps a durable store as the CLI does.
func newTarget(path, dataDir string) (*target, error) {
	g, err := loadGraph(path)
	if err != nil {
		return nil, err
	}
	t := &target{g: g}
	if dataDir != "" {
		if t.st, err = store.Open(store.Options{Dir: dataDir, Sync: store.SyncBatch, CheckpointEvery: checkpoint}); err != nil {
			return nil, err
		}
		if err := t.st.Bootstrap(g); err != nil {
			return nil, err
		}
		t.g = t.st.Graph()
	}
	t.srv = server.NewWithConfig(t.g, ns, server.Config{
		QueryTimeout:   30 * time.Second,
		MaxBodyBytes:   server.DefaultMaxBodyBytes,
		SessionTTL:     30 * time.Minute,
		SampleInterval: 10 * time.Second,
		CacheBytes:     64 << 20,
		MaxConcurrent:  64,
		QueueDepth:     128,
		StaleWindow:    30 * time.Second,
		SLO: server.SLOConfig{
			AvailabilityTarget: 0.999,
			LatencyTarget:      0.95,
			LatencyThreshold:   250 * time.Millisecond,
		},
		Store: t.st,
	})
	return t, nil
}

func (t *target) close() {
	t.srv.Close()
	if t.st != nil {
		t.st.Close()
	}
}

func (t *target) serve(o op) (*httptest.ResponseRecorder, time.Duration) {
	method, path, ct, sess := "POST", "/sparql", "application/sparql-query", ""
	var body []byte
	switch o.class {
	case "click", "answer":
		method, path, body = o.act.request()
		ct, sess = "application/json", o.uid
	case "update":
		ct, body = "application/sparql-update", []byte(o.text)
	default:
		body = []byte(o.text)
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ct)
	if sess != "" {
		req.Header.Set("X-Session", sess)
	}
	rr := httptest.NewRecorder()
	start := time.Now()
	t.srv.ServeHTTP(rr, req)
	return rr, time.Since(start)
}

// mirror replays requests through the public functions below the server.
type mirror struct {
	g        *rdf.Graph
	st       *store.Store
	dir      string
	sessions map[string]*core.Session
	fb       *sparql.FeedbackStore
	cache    *resilience.AnswerCache
	gate     *resilience.Admission
	source   string // answer source of the last RunAnalyticsCtx
	runs     int
	reused   int
}

func newMirror(path, dataDir string) (*mirror, error) {
	g, err := loadGraph(path)
	if err != nil {
		return nil, err
	}
	m := &mirror{g: g, dir: dataDir, sessions: map[string]*core.Session{}, fb: sparql.NewFeedbackStore(),
		cache: resilience.NewAnswerCache(64<<20, 5*time.Second, nil), gate: resilience.NewAdmission(64, 128)}
	if dataDir != "" {
		if m.st, err = store.Open(store.Options{Dir: dataDir, Sync: store.SyncBatch}); err != nil {
			return nil, err
		}
		if err := m.st.Bootstrap(g); err != nil {
			return nil, err
		}
		m.g = m.st.Graph()
	}
	return m, nil
}

func (m *mirror) session(id string) *core.Session {
	s, ok := m.sessions[id]
	if !ok {
		s = core.NewSession(m.g, ns)
		s.SetFeedback(m.fb)
		s.SetTraceSink(func(ev core.TraceEvent) {
			m.source = ev.Source
			m.runs++
			if ev.Source == "cache" || ev.Source == "cube_rollup" {
				m.reused++
			}
		})
		m.sessions[id] = s
	}
	return s
}

// tracer accumulates spans and counts over the traced pass.
type tracer struct {
	t0       time.Time
	req      int
	spans    []span    // the current request's spans
	all      []spanOut // every span of the pass, written out at the end
	durs     map[string][]float64
	self     map[string]time.Duration // per layer
	rootSelf map[string][]float64     // server self per op class
	root     map[string][]float64     // request time per op class
	replay   map[string][]float64     // mirror replay time per op class
	rootSum  map[string]time.Duration
	covered  map[string]time.Duration // the root's children, per op class
	counts   map[string]float64
	n        map[string]int // requests per op class
}

type spanOut struct {
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"`
	Dur    float64 `json:"dur_ms"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: map[string][]float64{}, self: map[string]time.Duration{},
		rootSelf: map[string][]float64{}, root: map[string][]float64{}, replay: map[string][]float64{},
		rootSum: map[string]time.Duration{}, covered: map[string]time.Duration{}, counts: map[string]float64{},
		n: map[string]int{}}
}

func (tr *tracer) add(name string, parent int, start time.Time, d time.Duration) int {
	tr.spans = append(tr.spans, span{layer: name[:strings.IndexByte(name, '.')], name: name, parent: parent, dur: d})
	tr.all = append(tr.all, spanOut{Req: tr.req, Name: name, Parent: parent, Start: ms(start.Sub(tr.t0)), Dur: ms(d)})
	tr.durs[name] = append(tr.durs[name], ms(d))
	return len(tr.spans) - 1
}

// timed runs f as a span named name under parent.
func (tr *tracer) timed(name string, parent int, f func()) int {
	start := time.Now()
	f()
	return tr.add(name, parent, start, time.Since(start))
}

// finish closes the current request: self times per layer, the server's
// self time and how much of the request its replayed children cover.
func (tr *tracer) finish(class string) {
	self := selfTimes(tr.spans)
	for i, s := range tr.spans {
		tr.self[s.layer] += self[i]
	}
	tr.rootSelf[class] = append(tr.rootSelf[class], ms(self[0]))
	tr.root[class] = append(tr.root[class], ms(tr.spans[0].dur))
	tr.rootSum[class] += tr.spans[0].dur
	tr.covered[class] += covered(tr.spans)
	tr.n[class]++
	tr.spans = tr.spans[:0]
	tr.req++
}

func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runTraced replays the workload's request sequence in process for the
// window, recording spans and counts, and reports the per-layer metrics.
func runTraced(cfg config) (*outcome, error) {
	if cfg.workload != "explore" && cfg.workload != "mixed-write" {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	ratings := cfg.workload == "mixed-write"
	ds, err := makeDataset(cfg.dir, cfg.seed, ratings)
	if err != nil {
		return nil, err
	}
	durable := func(name string) string {
		if !ratings {
			return ""
		}
		return filepath.Join(cfg.dir, name)
	}
	o := newOutcome()
	tgt, err := newTarget(ds.path, durable("server"))
	if err != nil {
		return nil, err
	}
	defer tgt.close()
	m, err := newMirror(ds.path, durable("mirror"))
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	st := newStream(cfg, ds)
	ctx := context.Background()
	_, hits0, miss0 := tgt.g.CardCacheStats()
	var lastCheckpoints int64
	n := 0
	for deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second); time.Now().Before(deadline); n++ {
		x := st.next()
		o.tally.attempted++
		scans0, ver0 := tgt.g.IndexScans(), tgt.g.Version()
		var wal0 int64
		if tgt.st != nil {
			wal0 = tgt.st.Stats().WALBytesTotal
		}
		start := time.Now()
		rr, d := tgt.serve(x)
		root := tr.add("server.request", -1, start, d)
		replayStart := time.Now()
		scans := float64(tgt.g.IndexScans() - scans0)
		body := rr.Body.Bytes()
		switch {
		case rr.Code == http.StatusServiceUnavailable:
			o.tally.refused++
			tr.counts["refused"]++
		case rr.Code/100 != 2:
			o.tally.failed++
		}
		ok := rr.Code/100 == 2
		var wrong bool
		switch x.class {
		case "click":
			tr.counts["click_scans"] += scans
			tr.counts["click_bytes"] += float64(len(body))
			m.click(tr, root, x)
		case "answer":
			wrong = ok && m.answer(ctx, tr, root, x, body)
		case "query":
			tr.counts["query_scans"] += scans
			if rr.Header().Get("X-Cache") == "hit" {
				tr.counts["hits"]++
			}
			wrong = ok && m.query(ctx, tr, root, x, body)
			if c, err := countValue(body); ok && (err != nil || c != len(ds.laptops)) {
				wrong = true
			}
		case "update":
			tr.counts["versions"] += float64(tgt.g.Version() - ver0)
			if tgt.st != nil {
				tr.counts["wal_bytes"] += float64(tgt.st.Stats().WALBytesTotal - wal0)
			}
			m.update(ctx, tr, root, x)
		}
		tr.replay[x.class] = append(tr.replay[x.class], ms(time.Since(replayStart)))
		if wrong {
			o.tally.wrong++
		}
		tr.finish(x.class)
		st.observe(x, body)
		// Time a mirror checkpoint whenever the server's background
		// checkpointer has completed one.
		if tgt.st != nil {
			if c := tgt.st.Stats().Checkpoints; c > lastCheckpoints {
				lastCheckpoints = c
				start := time.Now()
				if err := m.st.Checkpoint(); err != nil {
					return nil, err
				}
				tr.durs["store.checkpoint"] = append(tr.durs["store.checkpoint"], ms(time.Since(start)))
			}
		}
	}
	if o.tally.bad() > 0 {
		o.fail("traced %s: %d of %d requests failed or disagreed with the mirror", cfg.workload, o.tally.bad(), n)
	}
	_, hits1, miss1 := tgt.g.CardCacheStats()
	tr.counts["card_hits"], tr.counts["card_lookups"] = float64(hits1-hits0), float64(hits1-hits0+miss1-miss0)
	if m.st != nil {
		if err := m.storeFigures(tr); err != nil {
			return nil, err
		}
		tr.counts["checkpoints"] = float64(tgt.st.Stats().Checkpoints)
	}
	tr.report(o, m)
	o.put("requests", float64(n), "count")
	return o, tr.write(filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed)))
}

// click replays a session request: the session call (with the facet
// transition it hides) and the UI-state computation (with the facet
// computations it hides).
func (m *mirror) click(tr *tracer, root int, x op) {
	s := m.session(x.uid)
	a := x.act
	prev, model := s.State(), s.Model()
	var err error
	switch a.Kind {
	case "state":
	case "load":
		tr.timed("core.load_answer", root, func() { _, err = a.apply(context.Background(), s) })
	default:
		c := tr.timed("core.click", root, func() { _, err = a.apply(context.Background(), s) })
		if err == nil && (a.Kind == "class" || a.Kind == "value" || a.Kind == "range") {
			var t rdf.Term
			if a.Term != nil {
				t, _ = toTerm(*a.Term)
			}
			tr.timed("facet.transition", c, func() {
				switch a.Kind {
				case "class":
					model.ClickClass(prev, rdf.NewIRI(a.Class))
				case "value":
					model.ClickValue(prev, toPath(a.Path), t)
				case "range":
					model.ClickRange(prev, toPath(a.Path), a.Op, t)
				}
			})
		}
	}
	if err != nil {
		return
	}
	a0 := allocObjects()
	ui := tr.timed("core.ui_state", root, func() { s.ComputeUIState(50, true) })
	tr.durs["facet.allocs_per_state"] = append(tr.durs["facet.allocs_per_state"], float64(allocObjects()-a0))
	model, cur := s.Model(), s.State()
	// The object cards of the right frame are one Graph.Match per shown
	// object; ComputeUIState does exactly this for up to 50 objects.
	tr.timed("rdf.match_proxy", ui, func() {
		items := cur.Ext.Items()
		for _, o := range items[:min(len(items), 50)] {
			model.G.Match(o, rdf.Any, rdf.Any, func(rdf.Triple) bool { return true })
		}
	})
	tr.timed("facet.class_facet", ui, func() { model.ClassFacet(cur) })
	var facets []facet.Facet
	tr.timed("facet.property_facets", ui, func() { facets = model.PropertyFacets(cur, true) })
	tr.timed("facet.buckets", ui, func() {
		for _, f := range facets {
			numeric := 0
			for _, vc := range f.Values {
				if vc.Value.IsNumeric() {
					numeric++
				}
			}
			if !f.Inverse && len(f.Values) > 0 && numeric*2 > len(f.Values) {
				model.NumericBuckets(cur, f.P, 5)
			}
		}
	})
}

// answer replays /api/run and reports whether the server's answer differs
// from the mirror's.
func (m *mirror) answer(ctx context.Context, tr *tracer, root int, x op, body []byte) bool {
	s := m.session(x.uid)
	q, qerr := s.BuildHIFUNQuery()
	var ans *hifun.Answer
	var err error
	m.source = ""
	run := tr.timed("core.run", root, func() { ans, err = s.RunAnalyticsCtx(ctx) })
	if err != nil || qerr != nil {
		return true
	}
	if m.source == "query" {
		hc := s.Context()
		exec := tr.timed("hifun.execute", run, func() { hc.ExecuteCtx(ctx, q) })
		var src string
		tr.timed("hifun.translate", exec, func() { src, _ = hc.Translator().Translate(q) })
		var parsed *sparql.Query
		tr.timed("sparql.parse", exec, func() { parsed, _ = sparql.Parse(src) })
		if parsed != nil {
			fp := sparql.FingerprintID(sparql.Fingerprint(parsed))
			ex := tr.timed("sparql.exec", exec, func() {
				sparql.ExecSelectCtx(ctx, hc.Graph, parsed, sparql.Options{Profile: sparql.NewProfile("exec"), Feedback: m.fb, FingerprintID: fp})
			})
			scanPatterns(tr, ex, hc.Graph, parsed)
		}
	}
	var got answerResp
	return json.Unmarshal(body, &got) != nil || !sameAnswer(got, answerJSON(ans))
}

// query replays the /sparql read path: parse, cache lookup and, on a miss,
// admission, execution and JSON rendering. It reports whether the server's
// result differs from the mirror's.
func (m *mirror) query(ctx context.Context, tr *tracer, root int, x op, body []byte) bool {
	var parsed *sparql.Query
	var err error
	tr.timed("sparql.parse", root, func() { parsed, err = sparql.Parse(x.text) })
	if err != nil {
		return true
	}
	fp := sparql.FingerprintID(sparql.Fingerprint(parsed))
	key := resilience.CacheKey(fp, x.text)
	var hit *resilience.Answer
	var ok bool
	tr.timed("resilience.lookup", root, func() { hit, ok = m.cache.Lookup(key, m.g.Version()) })
	if ok {
		return !bytes.Equal(hit.Body, body)
	}
	var release func()
	tr.timed("resilience.admit_wait", root, func() { release, _ = m.gate.Acquire(ctx, fp, false) })
	if release == nil {
		return true
	}
	defer release()
	version := m.g.Version()
	prof := sparql.NewProfile("sparql")
	var res *sparql.Results
	a0 := allocObjects()
	ex := tr.timed("sparql.exec", root, func() {
		res, err = sparql.ExecSelectCtx(ctx, m.g, parsed, sparql.Options{Profile: prof, Feedback: m.fb, FingerprintID: fp})
	})
	tr.durs["sparql.exec_allocs"] = append(tr.durs["sparql.exec_allocs"], float64(allocObjects()-a0))
	if err != nil {
		return true
	}
	scanPatterns(tr, ex, m.g, parsed)
	var buf bytes.Buffer
	tr.timed("sparql.write_json", root, func() {
		res.Sort()
		res.WriteJSON(&buf)
	})
	tr.durs["sparql.rows"] = append(tr.durs["sparql.rows"], float64(len(res.Rows)))
	tr.counts["qerror_max"] = max(tr.counts["qerror_max"], prof.MaxQError())
	m.cache.Store(key, &resilience.Answer{Body: buf.Bytes(), Status: http.StatusOK, Rows: len(res.Rows), Version: version, When: time.Now()})
	return !bytes.Equal(buf.Bytes(), body)
}

// scanPatterns charges the index access of an execution to the rdf layer:
// it times one Graph.Match over each plain triple pattern of q, with the
// pattern's constants bound and its variables free. The evaluator binds
// patterns from earlier joins, so this is the access cost of the query's
// patterns, not a trace of the evaluator's own scans.
func scanPatterns(tr *tracer, parent int, g *rdf.Graph, q *sparql.Query) {
	var pats []sparql.TriplePattern
	var walk func(gp *sparql.GroupPattern)
	walk = func(gp *sparql.GroupPattern) {
		if gp == nil {
			return
		}
		for _, e := range gp.Elems {
			switch {
			case e.Triple != nil && e.Triple.Path == nil:
				pats = append(pats, *e.Triple)
			case e.Union != nil:
				for _, alt := range e.Union.Alternatives {
					walk(alt)
				}
			case e.SubQuery != nil:
				walk(e.SubQuery.Where)
			}
			walk(e.Optional)
			walk(e.Group)
			walk(e.Minus)
		}
	}
	walk(q.Where)
	node := func(n sparql.Node) rdf.Term {
		if n.Kind == sparql.NodeTerm {
			return n.Term
		}
		return rdf.Any
	}
	tr.timed("rdf.match_proxy", parent, func() {
		for _, p := range pats {
			g.Match(node(p.S), node(p.P), node(p.O), func(rdf.Triple) bool { return true })
		}
	})
}

// update replays a SPARQL update and, with a store, its group commit.
func (m *mirror) update(ctx context.Context, tr *tracer, root int, x op) {
	var res sparql.UpdateResult
	var err error
	tr.timed("sparql.update", root, func() { res, err = sparql.ExecUpdateCtx(ctx, m.g, x.text) })
	if err == nil && (res.Inserted > 0 || res.Deleted > 0) {
		for _, s := range m.sessions {
			s.InvalidateCache()
		}
	}
	if m.st != nil {
		tr.timed("store.sync", root, func() { m.st.Sync() })
	}
}

// storeFigures checkpoints the mirror store once more, measures the
// segment size per triple, then closes and reopens it to time a restart.
func (m *mirror) storeFigures(tr *tracer) error {
	if err := m.st.Checkpoint(); err != nil {
		return err
	}
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return err
	}
	var segBytes int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "segment-") && strings.HasSuffix(e.Name(), ".seg") {
			info, err := e.Info()
			if err != nil {
				return err
			}
			segBytes += info.Size()
		}
	}
	tr.counts["segment_bytes_per_triple"] = float64(segBytes) / float64(m.g.Len())
	if err := m.st.Close(); err != nil {
		return err
	}
	start := time.Now()
	reopened, err := store.Open(store.Options{Dir: m.dir, Sync: store.SyncBatch})
	if err != nil {
		return err
	}
	tr.counts["restart_s"] = time.Since(start).Seconds()
	m.st = nil
	return reopened.Close()
}

// report turns the pass's spans and counts into the per-layer metrics.
func (tr *tracer) report(o *outcome, m *mirror) {
	med := func(name string) float64 { return median(tr.durs[name]) }
	per := func(count string, class string) float64 {
		return tr.counts[count] / float64(max(tr.n[class], 1))
	}
	for _, c := range opClasses {
		o.put("server.self_ms."+c, median(tr.rootSelf[c]), "ms")
	}
	o.put("server.resp_kb.click", per("click_bytes", "click")/1024, "kB")
	o.put("resilience.hit_ratio", per("hits", "query"), "ratio")
	o.put("resilience.lookup_ms", med("resilience.lookup"), "ms")
	o.put("resilience.admit_wait_ms", med("resilience.admit_wait"), "ms")
	o.put("resilience.refused", tr.counts["refused"], "count")
	o.put("core.click_ms", med("core.click"), "ms")
	o.put("core.ui_state_ms", med("core.ui_state"), "ms")
	o.put("core.run_ms", med("core.run"), "ms")
	o.put("core.answer_reuse_ratio", float64(m.reused)/float64(max(m.runs, 1)), "ratio")
	o.put("core.load_answer_ms", med("core.load_answer"), "ms")
	o.put("facet.class_facet_ms", med("facet.class_facet"), "ms")
	o.put("facet.property_facets_ms", med("facet.property_facets"), "ms")
	o.put("facet.buckets_ms", med("facet.buckets"), "ms")
	o.put("facet.transition_ms", med("facet.transition"), "ms")
	o.put("facet.allocs_per_state", med("facet.allocs_per_state"), "count")
	o.put("hifun.translate_ms", med("hifun.translate"), "ms")
	o.put("hifun.execute_ms", med("hifun.execute"), "ms")
	o.put("sparql.parse_ms", med("sparql.parse"), "ms")
	o.put("sparql.exec_ms", med("sparql.exec"), "ms")
	o.put("sparql.exec_allocs", med("sparql.exec_allocs"), "count")
	o.put("sparql.write_json_ms", med("sparql.write_json"), "ms")
	o.put("sparql.rows_per_result", mean(tr.durs["sparql.rows"]), "count")
	o.put("sparql.qerror_max", tr.counts["qerror_max"], "ratio")
	o.put("sparql.update_ms", med("sparql.update"), "ms")
	o.put("rdf.index_scans_per_req.click", per("click_scans", "click"), "count")
	o.put("rdf.index_scans_per_req.query", per("query_scans", "query"), "count")
	o.put("rdf.card_cache_hit_ratio", tr.counts["card_hits"]/max(tr.counts["card_lookups"], 1), "ratio")
	o.put("rdf.versions_per_update", per("versions", "update"), "count")
	o.put("store.sync_ms", med("store.sync"), "ms")
	o.put("store.wal_bytes_per_update", per("wal_bytes", "update"), "B")
	o.put("store.checkpoint_ms", med("store.checkpoint"), "ms")
	o.put("store.checkpoints", tr.counts["checkpoints"], "count")
	o.put("store.segment_bytes_per_triple", tr.counts["segment_bytes_per_triple"], "B")
	o.put("store.restart_s", tr.counts["restart_s"], "s")
	for _, l := range layers {
		o.put(selfName(l), ms(tr.self[l])/float64(max(tr.req, 1)), "ms")
	}
	// The server requests themselves run untraced; tracing costs the
	// replay on the mirror, which runs after each request returns.
	for _, c := range opClasses {
		coverage := 0.0
		if tr.rootSum[c] > 0 {
			coverage = float64(tr.covered[c]) / float64(tr.rootSum[c]) * 100
		}
		o.put("trace.request_ms."+c, median(tr.root[c]), "ms")
		o.put("trace.replay_ms."+c, median(tr.replay[c]), "ms")
		o.put("trace.coverage_pct."+c, coverage, "%")
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// write saves every span of the traced pass as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
