package facet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// The oracle below recomputes Algorithm 5 by brute force over g.Triples():
// no indexes, no dictionary IDs, values ordered with sort.Slice and the
// per-comparison Term.Less (which internal/rdf pins to the pre-sort-key
// comparison). TestFacetOracleWalks compares the model against it on
// seeded random walks, checking order and counts, not only sets.

// oracle is the brute-force reference over one snapshot of a graph.
type oracle struct {
	triples []rdf.Triple
	schema  *rdf.Schema
}

func newOracle(g *rdf.Graph) *oracle {
	return &oracle{triples: g.Triples(), schema: rdf.SchemaOf(g)}
}

// restrict is {x ∈ ext : ∃ (x, p, o) with keep(o)}, or (o, p, x) when
// inverse.
func (o *oracle) restrict(ext *TermSet, p rdf.Term, inverse bool, keep func(rdf.Term) bool) map[rdf.Term]bool {
	out := map[rdf.Term]bool{}
	for _, t := range o.triples {
		x, v := t.S, t.O
		if inverse {
			x, v = t.O, t.S
		}
		if t.P == p && ext.Has(x) && keep(v) {
			out[x] = true
		}
	}
	return out
}

func (o *oracle) classFacet(ext *TermSet) []ClassNode {
	typ := rdf.NewIRI(rdf.RDFType)
	var build func(c rdf.Term) (ClassNode, bool)
	build = func(c rdf.Term) (ClassNode, bool) {
		n := ClassNode{Class: c, Count: len(o.restrict(ext, typ, false, func(v rdf.Term) bool { return v == c }))}
		for _, sub := range o.schema.DirectSubClasses(c) {
			if child, ok := build(sub); ok {
				n.Children = append(n.Children, child)
			}
		}
		return n, n.Count > 0 || len(n.Children) > 0
	}
	var out []ClassNode
	for _, c := range o.schema.MaximalClasses() {
		if n, ok := build(c); ok {
			out = append(out, n)
		}
	}
	return out
}

// joins counts, per value, the members of ext it is linked to by p.
func (o *oracle) joins(ext map[rdf.Term]bool, p rdf.Term, inverse bool) []ValueCount {
	counts := map[rdf.Term]int{}
	for _, t := range o.triples {
		x, v := t.S, t.O
		if inverse {
			x, v = t.O, t.S
		}
		if t.P == p && ext[x] {
			counts[v]++
		}
	}
	var out []ValueCount
	for v, c := range counts {
		out = append(out, ValueCount{Value: v, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value.Less(out[j].Value)
	})
	return out
}

func (o *oracle) propertyFacets(ext *TermSet, includeInverse bool) []Facet {
	var props []rdf.Term
	for p := range o.schema.Properties {
		props = append(props, p)
	}
	sort.Slice(props, func(i, j int) bool { return props[i].Less(props[j]) })
	members := setOf(ext.Items())
	var out []Facet
	for _, p := range props {
		for _, inverse := range []bool{false, true} {
			if inverse && !includeInverse {
				continue
			}
			if vals := o.joins(members, p, inverse); len(vals) > 0 {
				out = append(out, Facet{P: p, Inverse: inverse, Values: vals})
			}
		}
	}
	return out
}

func (o *oracle) numericBuckets(ext *TermSet, p rdf.Term, n int) []Bucket {
	type point struct {
		x rdf.Term
		v float64
	}
	var pts []point
	distinct := map[float64]bool{}
	for _, t := range o.triples {
		if v, ok := t.O.Float(); ok && t.P == p && ext.Has(t.S) {
			pts = append(pts, point{t.S, v})
			distinct[v] = true
		}
	}
	if len(distinct) < 2 {
		return nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, pt := range pts {
		lo, hi = math.Min(lo, pt.v), math.Max(hi, pt.v)
	}
	width := (hi - lo) / float64(n)
	out := make([]Bucket, n)
	for i := range out {
		out[i] = Bucket{Lo: lo + float64(i)*width, Hi: lo + float64(i+1)*width}
	}
	out[n-1].Hi = hi
	counted := map[string]bool{}
	for _, pt := range pts {
		idx := min(int((pt.v-lo)/width), n-1)
		if key := fmt.Sprint(pt.x, idx); !counted[key] {
			counted[key] = true
			out[idx].Count++
		}
	}
	return out
}

// holds is the reference literal comparison of a range click.
func holds(a rdf.Term, op string, b rdf.Term) bool {
	if af, ok := a.Float(); ok {
		if bf, ok := b.Float(); ok {
			return map[string]bool{"<": af < bf, "<=": af <= bf, ">": af > bf, ">=": af >= bf}[op]
		}
	}
	if a.IsTemporal() && b.IsTemporal() {
		at, okA := a.Time()
		bt, okB := b.Time()
		if okA && okB {
			c := at.Compare(bt)
			return map[string]bool{"<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[op]
		}
	}
	return false
}

func setOf(ts []rdf.Term) map[rdf.Term]bool {
	out := make(map[rdf.Term]bool, len(ts))
	for _, t := range ts {
		out[t] = true
	}
	return out
}

// oracleGraph is a products KG with the value shapes whose order needs
// decoding: xsd:date release dates, dateTimes with zone offsets, an integer
// rating, and a weight mixing numeric datatypes ("1" next to "1.0").
func oracleGraph(seed int64) *rdf.Graph {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 60, Companies: 6, Seed: seed, Materialize: true})
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i <= 60; i++ {
		l := pe(fmt.Sprintf("laptop%d", i))
		g.Add(rdf.NewTriple(l, pe("rating"), rdf.NewInteger(int64(1+rng.Intn(5)))))
		if rng.Intn(2) == 0 {
			g.Add(rdf.NewTriple(l, pe("reviewed"), rdf.NewTyped(fmt.Sprintf("2022-06-01T%02d:00:00%s",
				8+rng.Intn(10), []string{"Z", "+02:00", "-04:00", ""}[rng.Intn(4)]), rdf.XSDDateTime)))
		}
		if rng.Intn(2) == 0 {
			g.Add(rdf.NewTriple(l, pe("weight"), rdf.NewTyped([]string{"1", "1.0", "2.5", "2.50", "3"}[rng.Intn(5)],
				[]string{rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble}[rng.Intn(3)])))
		}
	}
	return g
}

// TestFacetOracleWalks compares, at every state of seeded random walks,
// ClassFacet, PropertyFacets with inverse facets, NumericBuckets and every
// offered transition (class, value and range clicks, focus switches)
// against the oracle.
func TestFacetOracleWalks(t *testing.T) {
	for _, seed := range []int64{3, 8} {
		g := oracleGraph(seed)
		m := NewModel(g)
		o := newOracle(g)
		rng := rand.New(rand.NewSource(seed))
		for walk := 0; walk < 3; walk++ {
			s := m.Start()
			for step := 0; step < 4 && s.Ext.Len() > 0; step++ {
				where := fmt.Sprintf("seed %d walk %d step %d (%s)", seed, walk, step, s.Int)
				next := checkState(t, where, m, o, s)
				if len(next) == 0 {
					break
				}
				s = next[rng.Intn(len(next))]
			}
		}
	}
}

// checkState compares one state against the oracle and returns the states
// its transitions lead to.
func checkState(t *testing.T, where string, m *Model, o *oracle, s *State) []*State {
	t.Helper()
	var next []*State
	sameExt := func(what string, got *State, want map[rdf.Term]bool) {
		t.Helper()
		if !reflect.DeepEqual(setOf(got.Ext.Items()), want) {
			t.Fatalf("%s: %s extension %v, oracle %v", where, what, got.Ext.Items(), want)
		}
		next = append(next, got)
	}
	classes := m.ClassFacet(s)
	if want := o.classFacet(s.Ext); !reflect.DeepEqual(classes, want) {
		t.Fatalf("%s: ClassFacet\n got %v\nwant %v", where, classes, want)
	}
	typ := rdf.NewIRI(rdf.RDFType)
	var visit func([]ClassNode)
	visit = func(ns []ClassNode) {
		for _, n := range ns {
			c := n.Class
			sameExt("class "+c.LocalName(), m.ClickClass(s, c),
				o.restrict(s.Ext, typ, false, func(v rdf.Term) bool { return v == c }))
			visit(n.Children)
		}
	}
	visit(classes)
	facets := m.PropertyFacets(s, true)
	if want := o.propertyFacets(s.Ext, true); !reflect.DeepEqual(facets, want) {
		t.Fatalf("%s: PropertyFacets\n got %v\nwant %v", where, facets, want)
	}
	for _, f := range facets {
		path := Path{{P: f.P, Inverse: f.Inverse}}
		pivot := map[rdf.Term]bool{}
		for _, vc := range f.Values {
			if vc.Value.IsResource() {
				pivot[vc.Value] = true
			}
		}
		sameExt("pivot "+path.String(), m.SwitchFocus(s, path[0]), pivot)
		for _, vc := range f.Values {
			v := vc.Value
			sameExt(fmt.Sprintf("value %s=%v", path, v), m.ClickValue(s, path, v),
				o.restrict(s.Ext, f.P, f.Inverse, func(u rdf.Term) bool { return u == v }))
		}
		if f.Inverse {
			continue
		}
		buckets := m.NumericBuckets(s, f.P, 4)
		if want := o.numericBuckets(s.Ext, f.P, 4); !reflect.DeepEqual(buckets, want) {
			t.Fatalf("%s: NumericBuckets(%s)\n got %v\nwant %v", where, f.P.LocalName(), buckets, want)
		}
		// Range clicks at each bucket edge and at a middle value (dates
		// compare on the time line).
		bounds := []rdf.Term{f.Values[len(f.Values)/2].Value}
		for _, b := range buckets {
			bounds = append(bounds, rdf.NewDecimal(b.Lo), rdf.NewDecimal(b.Hi))
		}
		for _, b := range bounds {
			for _, op := range []string{"<", "<=", ">", ">="} {
				sameExt(fmt.Sprintf("range %s %s %v", path, op, b), m.ClickRange(s, path, op, b),
					o.restrict(s.Ext, f.P, false, func(u rdf.Term) bool { return holds(u, op, b) }))
			}
		}
	}
	return next
}

// TestStaleIDSetRecomputed pins the version stamp of the extension's ID
// set: a state started from a term the graph does not hold yet resolves to
// an empty ID set, and once an update interns the term the same state's
// facets must count it.
func TestStaleIDSetRecomputed(t *testing.T) {
	g := datagen.SmallProducts()
	m := NewModel(g)
	newbie := pe("laptop99")
	s := m.StartFrom([]rdf.Term{newbie})
	if fs := m.PropertyFacets(s, false); len(fs) != 0 {
		t.Fatalf("unknown term has facets: %v", fs)
	}
	g.Add(rdf.NewTriple(newbie, pe("manufacturer"), pe("DELL")))
	g.Add(rdf.NewTriple(newbie, rdf.NewIRI(rdf.RDFType), pe("Laptop")))
	want := []Facet{{P: pe("manufacturer"), Values: []ValueCount{{Value: pe("DELL"), Count: 1}}}}
	if fs := m.PropertyFacets(s, false); !reflect.DeepEqual(fs, want) {
		t.Fatalf("after the update: facets %v, want %v", fs, want)
	}
	if n := findClass(m.ClassFacet(s), pe("Laptop")); n == nil || n.Count != 1 {
		t.Fatalf("after the update: Laptop class node %v", n)
	}
	if s2 := m.ClickValue(s, Path{{P: pe("manufacturer")}}, pe("DELL")); s2.Ext.Len() != 1 {
		t.Fatalf("after the update: click gives %v", s2.Ext.Items())
	}
}
