package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"rdfanalytics/internal/core"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

// Wire forms of the session API (the subset the walks read).
type termJSON struct {
	Kind     string `json:"kind"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"lang,omitempty"`
}

type stepJSON struct {
	P       string `json:"p"`
	Inverse bool   `json:"inverse,omitempty"`
}

type stateResp struct {
	Classes []classEntry `json:"classes"`
	Facets  []facetEntry `json:"facets"`
}

type classEntry struct {
	IRI      string       `json:"iri"`
	Children []classEntry `json:"children"`
}

// hasClass reports whether the class tree offers iri.
func hasClass(cs []classEntry, iri string) bool {
	for _, c := range cs {
		if c.IRI == iri || hasClass(c.Children, iri) {
			return true
		}
	}
	return false
}

type facetEntry struct {
	P       string `json:"p"`
	Inverse bool   `json:"inverse"`
	Numeric bool   `json:"numeric"`
	Values  []struct {
		Term  termJSON `json:"term"`
		Count int      `json:"count"`
	} `json:"values"`
}

type answerResp struct {
	GroupCols   []string     `json:"groupCols"`
	MeasureCols []string     `json:"measureCols"`
	Rows        [][]termJSON `json:"rows"`
}

// action is one step of a session walk: the HTTP request it sends and the
// core.Session call that the reference replay makes for it.
type action struct {
	Kind  string     `json:"k"` // state class value range groupby aggregate run load reset
	Class string     `json:"c,omitempty"`
	Path  []stepJSON `json:"p,omitempty"`
	Term  *termJSON  `json:"t,omitempty"`
	Op    string     `json:"o,omitempty"`
}

// isAnswer reports whether the action is /api/run, the "answer" op class;
// every other session request is a click.
func (a action) isAnswer() bool { return a.Kind == "run" }

func (a action) request() (method, path string, body []byte) {
	switch a.Kind {
	case "state":
		return "GET", "/api/state", nil
	case "class":
		body, _ = json.Marshal(map[string]string{"class": a.Class})
		return "POST", "/api/click/class", body
	case "value":
		body, _ = json.Marshal(map[string]any{"path": a.Path, "value": a.Term})
		return "POST", "/api/click/value", body
	case "range":
		body, _ = json.Marshal(map[string]any{"path": a.Path, "op": a.Op, "value": a.Term})
		return "POST", "/api/click/range", body
	case "groupby":
		body, _ = json.Marshal(map[string]any{"path": a.Path})
		return "POST", "/api/groupby", body
	case "aggregate":
		body, _ = json.Marshal(map[string]any{"path": a.Path, "op": a.Op})
		return "POST", "/api/aggregate", body
	case "run":
		return "POST", "/api/run", nil
	case "load":
		return "POST", "/api/load-answer", nil
	default:
		return "POST", "/api/reset", nil
	}
}

func (a action) mentions(iri string) bool {
	if a.Class == iri || (a.Term != nil && a.Term.Value == iri) {
		return true
	}
	return slices.ContainsFunc(a.Path, func(s stepJSON) bool { return s.P == iri })
}

var aggOps = []string{"AVG", "SUM", "MAX", "MIN", "COUNT"}

// user is one simulated analyst playing a §5.1 walk-through: state, class
// click, a value click and a range click on facets the last response
// offered, G and Σ, run, sometimes "explore the answer" with a HAVING
// range click, then reset. Choices come from the user's own seeded stream
// and the server's previous responses, so a walk is a function of the seed.
type user struct {
	id      string
	rng     *rand.Rand
	plan    []string
	step    int
	state   *stateResp
	history []action
}

func newUser(id string, rng *rand.Rand) *user {
	plan := []string{"state", "class", "value", "range", "groupby", "aggregate", "run"}
	if rng.Float64() < 0.3 {
		plan = append(plan, "load", "having")
	}
	plan = append(plan, "reset")
	return &user{id: id, rng: rng, plan: plan}
}

// next returns the user's next action, or false when the walk is over.
func (u *user) next() (action, bool) {
	if u.step >= len(u.plan) {
		return action{}, false
	}
	kind := u.plan[u.step]
	u.step++
	a := u.choose(kind)
	u.history = append(u.history, a)
	return a, true
}

// observe folds the server's reply to the last action into the user's view.
func (u *user) observe(a action, body []byte) {
	if a.isAnswer() {
		return
	}
	var st stateResp
	if json.Unmarshal(body, &st) == nil {
		u.state = &st
	}
}

// choose picks the concrete action for one planned step; when the last
// state offers nothing to click it falls back to re-reading the state.
func (u *user) choose(kind string) action {
	st := u.state
	if st == nil && kind != "state" && kind != "class" {
		return action{Kind: "state"}
	}
	switch kind {
	case "class":
		c := ns + "Laptop"
		if st != nil && len(st.Classes) > 0 && !hasClass(st.Classes, c) {
			c = st.Classes[u.rng.Intn(len(st.Classes))].IRI
		}
		return action{Kind: "class", Class: c}
	case "value", "groupby":
		f := u.pickFacet(false, kind == "value")
		if f < 0 {
			return action{Kind: "state"}
		}
		fc := st.Facets[f]
		path := []stepJSON{{P: fc.P}}
		if kind == "groupby" {
			if fc.P == ns+"manufacturer" && u.rng.Intn(2) == 0 {
				path = append(path, stepJSON{P: ns + "origin"})
			}
			return action{Kind: "groupby", Path: path}
		}
		v := u.pickValue(f)
		return action{Kind: "value", Path: path, Term: &v}
	case "range", "having":
		f := u.pickFacet(true, true)
		if f < 0 {
			return action{Kind: "state"}
		}
		v := u.pickValue(f)
		op := ">="
		if kind == "range" && u.rng.Intn(2) == 0 {
			op = "<="
		}
		return action{Kind: "range", Path: []stepJSON{{P: st.Facets[f].P}}, Op: op, Term: &v}
	case "aggregate":
		f := u.pickFacet(true, false)
		if f < 0 {
			return action{Kind: "state"}
		}
		return action{Kind: "aggregate", Path: []stepJSON{{P: st.Facets[f].P}}, Op: aggOps[u.rng.Intn(len(aggOps))]}
	case "run", "load":
		// Run needs a Σ and load needs a run. Under concurrent re-ratings
		// a range click can leave the focus with no numeric facet, so the
		// Σ step fell back to a state read; the server would rightly
		// refuse the run.
		need := "aggregate"
		if kind == "load" {
			need = "run"
		}
		if !slices.ContainsFunc(u.history, func(h action) bool { return h.Kind == need }) {
			return action{Kind: "state"}
		}
		return action{Kind: kind}
	default:
		return action{Kind: kind}
	}
}

// pickFacet returns a random forward facet of the last state that is
// numeric (or not), optionally requiring at least one value, or -1.
func (u *user) pickFacet(numeric, needValues bool) int {
	var cands []int
	for i, f := range u.state.Facets {
		if f.Inverse || f.Numeric != numeric || (needValues && len(f.Values) == 0) {
			continue
		}
		if f.P == rdf.RDFType || strings.HasPrefix(f.P, rdf.RDFSNS) {
			continue
		}
		// Non-numeric facets with hundreds of values (hard drives) would
		// narrow the walk to a handful of objects; analysts group and
		// filter on the coarse ones.
		if !numeric && len(f.Values) > 50 {
			continue
		}
		cands = append(cands, i)
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[u.rng.Intn(len(cands))]
}

// pickValue draws one of the facet's values weighted by its count.
func (u *user) pickValue(f int) termJSON {
	vals := u.state.Facets[f].Values
	total := 0
	for _, v := range vals {
		total += v.Count
	}
	r := u.rng.Intn(max(total, 1))
	for _, v := range vals {
		if r < v.Count {
			return v.Term
		}
		r -= v.Count
	}
	return vals[len(vals)-1].Term
}

// ---- reference replay ----

func toTerm(j termJSON) (rdf.Term, error) {
	switch j.Kind {
	case "iri":
		return rdf.NewIRI(j.Value), nil
	case "blank":
		return rdf.NewBlank(j.Value), nil
	case "literal", "":
		if j.Lang != "" {
			return rdf.NewLangString(j.Value, j.Lang), nil
		}
		if j.Datatype != "" {
			return rdf.NewTyped(j.Value, j.Datatype), nil
		}
		return rdf.NewString(j.Value), nil
	}
	return rdf.Term{}, fmt.Errorf("unknown term kind %q", j.Kind)
}

func fromTerm(t rdf.Term) termJSON {
	out := termJSON{Value: t.Value, Datatype: t.Datatype, Lang: t.Lang, Kind: "literal"}
	switch t.Kind {
	case rdf.KindIRI:
		out.Kind = "iri"
	case rdf.KindBlank:
		out.Kind = "blank"
	}
	return out
}

func toPath(steps []stepJSON) facet.Path {
	out := make(facet.Path, len(steps))
	for i, s := range steps {
		out[i] = facet.PathStep{P: rdf.NewIRI(s.P), Inverse: s.Inverse}
	}
	return out
}

// apply makes the core.Session call the server makes for a. Run returns the
// answer; the other actions return nil.
func (a action) apply(ctx context.Context, s *core.Session) (*hifun.Answer, error) {
	var t rdf.Term
	if a.Term != nil {
		var err error
		if t, err = toTerm(*a.Term); err != nil {
			return nil, err
		}
	}
	switch a.Kind {
	case "class":
		s.ClickClass(rdf.NewIRI(a.Class))
	case "value":
		s.ClickValue(toPath(a.Path), t)
	case "range":
		s.ClickRange(toPath(a.Path), a.Op, t)
	case "groupby":
		s.ClickGroupBy(core.GroupSpec{Path: toPath(a.Path)})
	case "aggregate":
		s.ClickAggregate(core.MeasureSpec{Path: toPath(a.Path)}, hifun.Operation{Op: hifun.AggOp(a.Op)})
	case "run":
		return s.RunAnalyticsCtx(ctx)
	case "load":
		return nil, s.LoadAnswerAsDataset()
	case "reset":
		s.Reset()
	}
	return nil, nil
}

// answerJSON renders a core answer in the server's wire form for comparison.
func answerJSON(a *hifun.Answer) answerResp {
	out := answerResp{GroupCols: a.GroupCols, MeasureCols: a.MeasureCols}
	for _, row := range a.Rows {
		jr := make([]termJSON, len(row))
		for i, t := range row {
			jr[i] = fromTerm(t)
		}
		out.Rows = append(out.Rows, jr)
	}
	return out
}

func sameAnswer(a, b answerResp) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}

// runCheck is one /api/run the server answered: the walk that led to it
// and the answer the server sent.
type runCheck struct {
	walk   []action // actions up to and including the run
	answer []byte
}

// checkAnswers replays each distinct walk on a fresh in-process session
// over ref and compares the answers. It returns how many runs disagree and
// how many distinct walks were checked. Walks for which skip is true are
// not checked (their answer depends on graph updates made meanwhile).
func checkAnswers(ref *rdf.Graph, runs []runCheck, skip func([]action) bool) (wrong, checked int, err error) {
	want := map[string]answerResp{}
	ctx := context.Background()
	for _, rc := range runs {
		if skip != nil && skip(rc.walk) {
			continue
		}
		key, _ := json.Marshal(rc.walk)
		exp, ok := want[string(key)]
		if !ok {
			s := core.NewSession(ref, ns)
			var ans *hifun.Answer
			for _, a := range rc.walk {
				if ans, err = a.apply(ctx, s); err != nil {
					return wrong, checked, fmt.Errorf("reference replay %s: %w", a.Kind, err)
				}
			}
			exp = answerJSON(ans)
			want[string(key)] = exp
			checked++
		}
		var got answerResp
		if json.Unmarshal(rc.answer, &got) != nil || !sameAnswer(got, exp) {
			wrong++
		}
	}
	return wrong, checked, nil
}
