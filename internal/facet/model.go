package facet

import (
	"cmp"
	"slices"
	"time"

	"rdfanalytics/internal/par"
	"rdfanalytics/internal/rdf"
)

// TermSet is an extension: a set of resources with deterministic iteration.
// It also caches its members' dictionary IDs (see Model.ids), so the counts
// and restrictions of Algorithm 5 run on integers. Items and the ID cache
// fill lazily: a TermSet is used by one goroutine at a time.
type TermSet struct {
	set   map[rdf.Term]struct{}
	items []rdf.Term // sorted lazily
	dirty bool
	// ids holds the members' IDs in graph idsOf as of its version idsAt. A
	// later mutation may intern a member, so the stamp must still match.
	ids   idSet
	idsOf *rdf.Graph
	idsAt uint64
}

// idSet is a set of dictionary IDs of one graph.
type idSet map[rdf.ID]struct{}

// NewTermSet builds a set from the given terms.
func NewTermSet(ts ...rdf.Term) *TermSet {
	s := &TermSet{set: make(map[rdf.Term]struct{}, len(ts))}
	for _, t := range ts {
		s.Add(t)
	}
	return s
}

// Add inserts t.
func (s *TermSet) Add(t rdf.Term) {
	if _, ok := s.set[t]; !ok {
		s.set[t] = struct{}{}
		s.dirty = true
		s.ids = nil
	}
}

// Has reports membership.
func (s *TermSet) Has(t rdf.Term) bool {
	_, ok := s.set[t]
	return ok
}

// Len returns the cardinality.
func (s *TermSet) Len() int { return len(s.set) }

// Items returns the members, sorted.
func (s *TermSet) Items() []rdf.Term {
	if s.dirty || s.items == nil {
		s.items = make([]rdf.Term, 0, len(s.set))
		for t := range s.set {
			s.items = append(s.items, t)
		}
		rdf.SortTerms(s.items)
		s.dirty = false
	}
	return s.items
}

// State is one interaction state: an extension (the displayed objects) and
// an intention (the query whose answer the extension is).
type State struct {
	Ext *TermSet
	Int Intention
}

// Model is the faceted-search model over one graph. It offers the state
// space primitives of §5.3: Restrict, Joins, class/property transitions and
// path expansion.
type Model struct {
	G      *rdf.Graph
	Schema *rdf.Schema
	// MaxValues caps the number of values listed per facet (0 = unlimited);
	// the GUI shows the top values and a "more" affordance.
	MaxValues int
	// Parallelism bounds the workers used for transition-marker counting
	// (PropertyFacets): 0 means GOMAXPROCS, 1 forces sequential. Output is
	// identical at every setting.
	Parallelism int
}

// NewModel builds a model over g. The graph should already be materialized
// (rdf.Materialize) so that inst() honors subclass/subproperty semantics —
// the closure C(K) of §5.3.1.
func NewModel(g *rdf.Graph) *Model {
	return &Model{G: g, Schema: rdf.SchemaOf(g)}
}

// Start returns the initial state s0: the extension holds every resource
// that appears as a subject (the named individuals of the dataset) and the
// intention is unrestricted.
func (m *Model) Start() *State {
	ext := NewTermSet()
	m.G.Match(rdf.Any, rdf.Any, rdf.Any, func(t rdf.Triple) bool {
		if t.S.IsResource() && !m.isSchemaEntity(t.S) {
			ext.Add(t.S)
		}
		return true
	})
	return &State{Ext: ext}
}

// isSchemaEntity filters classes and properties out of the object list.
func (m *Model) isSchemaEntity(t rdf.Term) bool {
	if _, ok := m.Schema.Classes[t]; ok {
		return true
	}
	if _, ok := m.Schema.Properties[t]; ok {
		return true
	}
	return false
}

// StartFrom returns a state whose extension is an externally produced
// result set (e.g. a keyword query), per §5.4.1.
func (m *Model) StartFrom(results []rdf.Term) *State {
	return &State{
		Ext: NewTermSet(results...),
		Int: Intention{Seed: append([]rdf.Term{}, results...)},
	}
}

// ids resolves the extension to dictionary IDs of m.G, once per graph
// version: the counts and transitions of a state all read the same set.
// Members the graph has never interned cannot match and are left out; the
// version stamp brings them in once a later update interns them.
func (m *Model) ids(e *TermSet) idSet {
	v := m.G.Version()
	if e.ids != nil && e.idsOf == m.G && e.idsAt == v {
		return e.ids
	}
	ids := make(idSet, len(e.set))
	for t := range e.set {
		if id, ok := m.G.TermID(t); ok {
			ids[id] = struct{}{}
		}
	}
	e.ids, e.idsOf, e.idsAt = ids, m.G, v
	return ids
}

// termSet materializes ids as a new extension that keeps ids as its ID set.
// v is the graph version read before the scans that produced ids: if the
// graph moved since, the stamp no longer matches and the set is resolved
// again.
func (m *Model) termSet(ids idSet, v uint64) *TermSet {
	s := &TermSet{set: make(map[rdf.Term]struct{}, len(ids)), dirty: true, ids: ids, idsOf: m.G, idsAt: v}
	for id := range ids {
		s.set[m.G.TermOf(id)] = struct{}{}
	}
	return s
}

// linked calls fn for every member x of e that p links to a value v of vals:
// (x, p, v), or (v, p, x) when inverse. A member linked to several values
// is reported once per value. fn runs under the graph's read lock and must
// not call back into the graph.
func (m *Model) linked(e idSet, p rdf.Term, inverse bool, vals idSet, fn func(x rdf.ID)) {
	pid, ok := m.G.TermID(p)
	if !ok {
		return
	}
	visit := func(x rdf.ID) bool {
		if _, in := e[x]; in {
			fn(x)
		}
		return true
	}
	for v := range vals {
		if inverse {
			m.G.MatchIDs(v, pid, 0, func(_, _, x rdf.ID) bool { return visit(x) })
		} else {
			m.G.MatchIDs(0, pid, v, func(x, _, _ rdf.ID) bool { return visit(x) })
		}
	}
}

// restrictIDs is Restrict(E, p:vals) on ID sets.
func (m *Model) restrictIDs(e idSet, p rdf.Term, inverse bool, vals idSet) idSet {
	out := idSet{}
	m.linked(e, p, inverse, vals, func(x rdf.ID) { out[x] = struct{}{} })
	return out
}

// Restrict implements Restrict(E, p:v) of §5.3.1.
func (m *Model) Restrict(e *TermSet, p rdf.Term, inverse bool, v rdf.Term) *TermSet {
	return m.RestrictSet(e, p, inverse, NewTermSet(v))
}

// RestrictSet implements Restrict(E, p:vset).
func (m *Model) RestrictSet(e *TermSet, p rdf.Term, inverse bool, vset *TermSet) *TermSet {
	v := m.G.Version()
	return m.termSet(m.restrictIDs(m.ids(e), p, inverse, m.ids(vset)), v)
}

// RestrictClass implements Restrict(E, c).
func (m *Model) RestrictClass(e *TermSet, c rdf.Term) *TermSet {
	return m.RestrictSet(e, rdf.NewIRI(rdf.RDFType), false, NewTermSet(c))
}

// edge is one (subject, object) pair of a predicate scan.
type edge struct{ s, o rdf.ID }

// edgesFrom returns the (x, o) pairs of p whose subject x is in e.
func (m *Model) edgesFrom(e idSet, p rdf.Term) []edge {
	pid, ok := m.G.TermID(p)
	if !ok {
		return nil
	}
	var out []edge
	m.G.MatchIDs(0, pid, 0, func(s, _, o rdf.ID) bool {
		if _, in := e[s]; in {
			out = append(out, edge{s, o})
		}
		return true
	})
	return out
}

// RestrictOp filters e by a literal comparison at the end of a single hop:
// the range-filter button of Example 3. Each distinct value is decoded and
// compared once.
func (m *Model) RestrictOp(e *TermSet, p rdf.Term, op string, v rdf.Term) *TermSet {
	ver := m.G.Version()
	out := idSet{}
	holds := map[rdf.ID]bool{}
	for _, ed := range m.edgesFrom(m.ids(e), p) {
		h, seen := holds[ed.o]
		if !seen {
			h = compareHolds(m.G.TermOf(ed.o), op, v)
			holds[ed.o] = h
		}
		if h {
			out[ed.s] = struct{}{}
		}
	}
	return m.termSet(out, ver)
}

func compareHolds(a rdf.Term, op string, b rdf.Term) bool {
	if op == "" || op == "=" {
		return a == b
	}
	if op == "!=" {
		return a != b
	}
	af, okA := a.Float()
	bf, okB := b.Float()
	if okA && okB {
		switch op {
		case "<":
			return af < bf
		case "<=":
			return af <= bf
		case ">":
			return af > bf
		case ">=":
			return af >= bf
		}
		return false
	}
	// Only genuinely temporal literals (xsd:date / xsd:dateTime) compare on
	// the time line; a plain string that parses like a date does not.
	if !a.IsTemporal() || !b.IsTemporal() {
		return false
	}
	at, okA2 := a.Time()
	bt, okB2 := b.Time()
	if okA2 && okB2 {
		switch op {
		case "<":
			return at.Before(bt)
		case "<=":
			return !at.After(bt)
		case ">":
			return at.After(bt)
		case ">=":
			return !at.Before(bt)
		}
	}
	return false
}

// Joins implements Joins(E, p) of §5.3.1: the values linked with the
// elements of E via p, with the count of E-members carrying each value.
// The counting runs in dictionary-ID space; value terms are materialized
// only for the result map.
func (m *Model) Joins(e *TermSet, p rdf.Term, inverse bool) map[rdf.Term]int {
	counts := m.countJoins(m.ids(e), p, inverse)
	out := make(map[rdf.Term]int, len(counts))
	for id, c := range counts {
		out[m.G.TermOf(id)] = c
	}
	return out
}

// countJoins is Joins on IDs: one scan of the predicate's index with
// integer membership tests. Triples are set-unique per predicate, so
// counting needs no dedup pass.
func (m *Model) countJoins(e idSet, p rdf.Term, inverse bool) map[rdf.ID]int {
	counts := map[rdf.ID]int{}
	pid, ok := m.G.TermID(p)
	if !ok {
		return counts
	}
	m.G.MatchIDs(0, pid, 0, func(s, _, o rdf.ID) bool {
		if inverse {
			if _, in := e[o]; in {
				counts[s]++
			}
		} else if _, in := e[s]; in {
			counts[o]++
		}
		return true
	})
	return counts
}

// ValueCount is one transition marker: a clickable value with its count.
type ValueCount struct {
	Value rdf.Term
	Count int
}

// sortValueCounts orders markers by descending count, then term order — the
// usual facet display order. Each value's sort key is decoded once, and the
// sort moves indices, not keys.
func sortValueCounts(vcs []ValueCount) {
	keys := make([]rdf.SortKey, len(vcs))
	order := make([]int32, len(vcs))
	for i, vc := range vcs {
		keys[i] = vc.Value.SortKey()
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		if c := cmp.Compare(vcs[j].Count, vcs[i].Count); c != 0 {
			return c
		}
		return keys[i].Compare(&keys[j])
	})
	sorted := make([]ValueCount, len(vcs))
	for i, k := range order {
		sorted[i] = vcs[k]
	}
	copy(vcs, sorted)
}

// valueCounts materializes ID counts as markers in display order: each
// distinct value is decoded once.
func (m *Model) valueCounts(counts map[rdf.ID]int) []ValueCount {
	vcs := make([]ValueCount, 0, len(counts))
	for id, c := range counts {
		vcs = append(vcs, ValueCount{Value: m.G.TermOf(id), Count: c})
	}
	sortValueCounts(vcs)
	return vcs
}

// ClassNode is a node of the hierarchical class facet (Fig 5.4 a–b):
// a class with the count of current objects it covers and its direct
// subclasses under the reflexive-transitive reduction.
type ClassNode struct {
	Class    rdf.Term
	Count    int
	Children []ClassNode
}

// ClassFacet computes the class-based transition markers for s: the maximal
// classes with nonzero counts, hierarchically organized (§5.3.2, Alg. 5
// Part B). Classes covering no current object are pruned (query guidance:
// no click leads to an empty result).
func (m *Model) ClassFacet(s *State) []ClassNode {
	defer observeSince(classFacetSeconds, time.Now())
	e := m.ids(s.Ext)
	typ := rdf.NewIRI(rdf.RDFType)
	var build func(c rdf.Term) (ClassNode, bool)
	build = func(c rdf.Term) (ClassNode, bool) {
		node := ClassNode{Class: c}
		if cid, ok := m.G.TermID(c); ok {
			m.linked(e, typ, false, idSet{cid: {}}, func(rdf.ID) { node.Count++ })
		}
		for _, sub := range m.Schema.DirectSubClasses(c) {
			if child, ok := build(sub); ok {
				node.Children = append(node.Children, child)
			}
		}
		return node, node.Count > 0 || len(node.Children) > 0
	}
	var out []ClassNode
	for _, c := range m.Schema.MaximalClasses() {
		if node, ok := build(c); ok {
			out = append(out, node)
		}
	}
	return out
}

// Facet is one property facet: the property, its direction, and its value
// markers with counts (Fig 5.4 c).
type Facet struct {
	P       rdf.Term
	Inverse bool
	Values  []ValueCount
}

// PropertyFacets computes the property-based transition markers of s
// (Alg. 5 Part C): one facet per property applicable to the extension, each
// with its joined values and counts. Inverse facets are included when
// includeInverse is set (the model's Pr⁻¹). The extension's ID set is
// resolved before the per-property counting fans out across the worker
// pool (Model.Parallelism); results land in per-property slots in property
// order, so output is identical at every parallelism level.
func (m *Model) PropertyFacets(s *State, includeInverse bool) []Facet {
	defer observeSince(propFacetsSeconds, time.Now())
	props := m.applicableProperties()
	e := m.ids(s.Ext)
	slots := make([][]Facet, len(props))
	par.Do(len(props), par.Workers(m.Parallelism), func(i int) {
		p := props[i]
		if counts := m.countJoins(e, p, false); len(counts) > 0 {
			slots[i] = append(slots[i], m.makeFacet(p, false, counts))
		}
		if includeInverse {
			if counts := m.countJoins(e, p, true); len(counts) > 0 {
				slots[i] = append(slots[i], m.makeFacet(p, true, counts))
			}
		}
	})
	var out []Facet
	for _, fs := range slots {
		out = append(out, fs...)
	}
	return out
}

func (m *Model) applicableProperties() []rdf.Term {
	var props []rdf.Term
	for p := range m.Schema.Properties {
		props = append(props, p)
	}
	rdf.SortTerms(props)
	return props
}

func (m *Model) makeFacet(p rdf.Term, inverse bool, counts map[rdf.ID]int) Facet {
	f := Facet{P: p, Inverse: inverse, Values: m.valueCounts(counts)}
	if m.MaxValues > 0 && len(f.Values) > m.MaxValues {
		f.Values = f.Values[:m.MaxValues]
	}
	return f
}

// pathMarkers computes the forward marker sets of a successive property
// path (§5.3.2): M_0 = e and M_i = Joins(M_{i-1}, p_i), with the counts of
// the last step.
func (m *Model) pathMarkers(e idSet, path Path) ([]idSet, map[rdf.ID]int) {
	markers := []idSet{e}
	var counts map[rdf.ID]int
	for _, step := range path {
		counts = m.countJoins(markers[len(markers)-1], step.P, step.Inverse)
		next := make(idSet, len(counts))
		for id := range counts {
			next[id] = struct{}{}
		}
		markers = append(markers, next)
	}
	return markers, counts
}

// ExpandPath computes the transition markers at the end of a successive
// property path p1…pk (§5.3.2, Fig 5.5): M_i = Joins(M_{i-1}, p_i) with
// M_0 = s.Ext. It returns the markers of the last step, or nil when the
// sequence is not successive (produces no values).
func (m *Model) ExpandPath(s *State, path Path) []ValueCount {
	defer observeSince(expandPathSeconds, time.Now())
	_, counts := m.pathMarkers(m.ids(s.Ext), path)
	if len(counts) == 0 {
		return nil
	}
	return m.valueCounts(counts)
}

// ClickValue performs the transition of selecting value v at the end of
// path (Eq. 5.1): the extension is restricted backwards through the path
// and the intention gains the corresponding condition.
func (m *Model) ClickValue(s *State, path Path, v rdf.Term) *State {
	ext := m.restrictThroughPath(s.Ext, path, m.isOneOf(NewTermSet(v)))
	in := s.Int.Clone()
	in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Value: v})
	return &State{Ext: ext, Int: in}
}

// ClickValueSet selects a set of values at the path end (multi-select).
func (m *Model) ClickValueSet(s *State, path Path, vs []rdf.Term) *State {
	ext := m.restrictThroughPath(s.Ext, path, m.isOneOf(NewTermSet(vs...)))
	in := s.Int.Clone()
	in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Values: append([]rdf.Term{}, vs...)})
	return &State{Ext: ext, Int: in}
}

// isOneOf is the end-value test of a click on the values of vs.
func (m *Model) isOneOf(vs *TermSet) func(rdf.ID) bool {
	ids := m.ids(vs)
	return func(id rdf.ID) bool {
		_, ok := ids[id]
		return ok
	}
}

// ClickRange applies a literal comparison at the end of a path: the range
// filter of Example 3 (§5.1).
func (m *Model) ClickRange(s *State, path Path, op string, v rdf.Term) *State {
	var ext *TermSet
	if len(path) == 1 {
		ext = m.RestrictOp(s.Ext, path[0].P, op, v)
	} else {
		// Longer paths: restrict back from the end values that compare.
		ext = m.restrictThroughPath(s.Ext, path, func(id rdf.ID) bool {
			return compareHolds(m.G.TermOf(id), op, v)
		})
	}
	in := s.Int.Clone()
	in.Conds = append(in.Conds, Cond{Path: append(Path{}, path...), Op: op, Value: v})
	return &State{Ext: ext, Int: in}
}

// ClickClass performs a class-based transition: the new extension is the
// current objects of type c; the intention records the class.
func (m *Model) ClickClass(s *State, c rdf.Term) *State {
	ext := m.RestrictClass(s.Ext, c)
	in := s.Int.Clone()
	in.Class = c
	return &State{Ext: ext, Int: in}
}

// SwitchFocus pivots the focus to the other end of property step: the new
// extension holds the resources joined with the current entities, and the
// intention records the pivot. This is the "switch between entity types"
// capability of the base model (§5.2.1 differentiator iii) — e.g. moving
// from a set of laptops to the set of their manufacturers, which then has
// its own facets (size, origin, founder ...).
func (m *Model) SwitchFocus(s *State, step PathStep) *State {
	ext := NewTermSet()
	for id := range m.countJoins(m.ids(s.Ext), step.P, step.Inverse) {
		if v := m.G.TermOf(id); v.IsResource() {
			ext.Add(v)
		}
	}
	base := s.Int.Clone()
	stepCopy := step
	return &State{
		Ext: ext,
		Int: Intention{Base: &base, PivotStep: &stepCopy},
	}
}

// restrictThroughPath implements Eq. 5.1: the selected end markers M'_k are
// the values of M_k that keep accepts, and each intermediate marker set and
// finally the extension are restricted backwards from them:
// M'_i = Restrict(M_i, p_{i+1} : M'_{i+1}).
func (m *Model) restrictThroughPath(ext *TermSet, path Path, keep func(rdf.ID) bool) *TermSet {
	v := m.G.Version()
	markers, _ := m.pathMarkers(m.ids(ext), path)
	restricted := idSet{}
	for id := range markers[len(path)] {
		if keep(id) {
			restricted[id] = struct{}{}
		}
	}
	for i := len(path) - 1; i >= 0; i-- {
		restricted = m.restrictIDs(markers[i], path[i].P, path[i].Inverse, restricted)
	}
	return m.termSet(restricted, v)
}
