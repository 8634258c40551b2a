package facet

import (
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

func model(t testing.TB) *Model {
	t.Helper()
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	return NewModel(g)
}

func pe(l string) rdf.Term { return rdf.NewIRI(datagen.ExampleNS + l) }

func findClass(nodes []ClassNode, c rdf.Term) *ClassNode {
	for i := range nodes {
		if nodes[i].Class == c {
			return &nodes[i]
		}
		if n := findClass(nodes[i].Children, c); n != nil {
			return n
		}
	}
	return nil
}

// TestFig54ClassFacet reproduces Fig 5.4 (a)-(b): the top-level classes with
// their counts, and the expanded hierarchy.
func TestFig54ClassFacet(t *testing.T) {
	m := model(t)
	s := m.Start()
	nodes := m.ClassFacet(s)
	// Fig 5.4 (a): Company (4), Location (5), Person (3), Product (6).
	want := map[string]int{"Company": 4, "Location": 5, "Person": 3, "Product": 6}
	if len(nodes) != len(want) {
		names := make([]string, len(nodes))
		for i, n := range nodes {
			names[i] = n.Class.LocalName()
		}
		t.Fatalf("top classes = %v, want %v", names, want)
	}
	for _, n := range nodes {
		if w, ok := want[n.Class.LocalName()]; !ok || n.Count != w {
			t.Errorf("class %s count = %d, want %d", n.Class.LocalName(), n.Count, want[n.Class.LocalName()])
		}
	}
	// Fig 5.4 (b): expansion — Location > {Continent (2), Country (3)},
	// Product > {HDType (3) > {NVMe (1), SSD (2)}, Laptop (3)}.
	sub := map[string]int{
		"Continent": 2, "Country": 3, "HDType": 3, "NVMe": 1, "SSD": 2, "Laptop": 3,
	}
	for name, w := range sub {
		n := findClass(nodes, pe(name))
		if n == nil {
			t.Errorf("class %s missing from hierarchy", name)
			continue
		}
		if n.Count != w {
			t.Errorf("class %s count = %d, want %d", name, n.Count, w)
		}
	}
	// SSD must be *under* HDType, not top-level.
	hdType := findClass(nodes, pe("HDType"))
	if hdType == nil || findClass(hdType.Children, pe("SSD")) == nil {
		t.Error("SSD not nested under HDType")
	}
}

// TestFig54PropertyFacets reproduces Fig 5.4 (c): after clicking class
// Laptop, the property facets show manufacturer DELL (2) / Lenovo (1), three
// release dates (1 each), USB ports 2 (2) / 4 (1), three hard drives.
func TestFig54PropertyFacets(t *testing.T) {
	m := model(t)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	if s.Ext.Len() != 3 {
		t.Fatalf("laptops = %d", s.Ext.Len())
	}
	facets := m.PropertyFacets(s, false)
	byName := map[string]Facet{}
	for _, f := range facets {
		byName[f.P.LocalName()] = f
	}
	man := byName["manufacturer"]
	if len(man.Values) != 2 {
		t.Fatalf("manufacturer values: %v", man.Values)
	}
	if man.Values[0].Value != pe("DELL") || man.Values[0].Count != 2 {
		t.Errorf("top manufacturer = %v (%d), want DELL (2)", man.Values[0].Value, man.Values[0].Count)
	}
	if man.Values[1].Value != pe("Lenovo") || man.Values[1].Count != 1 {
		t.Errorf("second manufacturer = %v (%d)", man.Values[1].Value, man.Values[1].Count)
	}
	usb := byName["USBPorts"]
	if len(usb.Values) != 2 || usb.Values[0].Count != 2 {
		t.Errorf("USBPorts: %v", usb.Values)
	}
	rd := byName["releaseDate"]
	if len(rd.Values) != 3 {
		t.Errorf("releaseDate: %v", rd.Values)
	}
	hd := byName["hardDrive"]
	if len(hd.Values) != 3 {
		t.Errorf("hardDrive: %v", hd.Values)
	}
	// No facet for properties inapplicable to laptops (e.g. GDPPerCapita).
	if _, ok := byName["GDPPerCapita"]; ok {
		t.Error("inapplicable property listed as facet")
	}
}

// TestFig55PathExpansion reproduces Fig 5.5 (b): expanding
// manufacturer/origin from the Laptop state gives US (1), China (1);
// expanding hardDrive/manufacturer gives Maxtor (2), AVDElectronics (1); one
// more hop to origin gives Singapore (1), US (1).
func TestFig55PathExpansion(t *testing.T) {
	m := model(t)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	vals := m.ExpandPath(s, Path{{P: pe("manufacturer")}, {P: pe("origin")}})
	asMap := func(vcs []ValueCount) map[string]int {
		out := map[string]int{}
		for _, vc := range vcs {
			out[vc.Value.LocalName()] = vc.Count
		}
		return out
	}
	got := asMap(vals)
	if got["USA"] != 1 || got["China"] != 1 {
		t.Errorf("manufacturer/origin = %v", got)
	}
	got = asMap(m.ExpandPath(s, Path{{P: pe("hardDrive")}, {P: pe("manufacturer")}}))
	if got["Maxtor"] != 2 || got["AVDElectronics"] != 1 {
		t.Errorf("hardDrive/manufacturer = %v", got)
	}
	got = asMap(m.ExpandPath(s, Path{{P: pe("hardDrive")}, {P: pe("manufacturer")}, {P: pe("origin")}}))
	if got["Singapore"] != 1 || got["USA"] != 1 {
		t.Errorf("hardDrive/manufacturer/origin = %v", got)
	}
	// Non-successive sequence yields nil.
	if m.ExpandPath(s, Path{{P: pe("origin")}}) != nil {
		t.Error("laptops have no origin; expansion must be nil")
	}
}

// TestClickValueEq51 checks the backward restriction of Eq. 5.1: selecting
// Asia at the end of hardDrive/manufacturer/origin/locatedAt keeps only
// laptops whose hard-drive maker is in Asia.
func TestClickValueEq51(t *testing.T) {
	m := model(t)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	path := Path{{P: pe("hardDrive")}, {P: pe("manufacturer")}, {P: pe("origin")}, {P: pe("locatedAt")}}
	s2 := m.ClickValue(s, path, pe("Asia"))
	// Maxtor (Singapore/Asia) makes SSD1 (laptop1) and NVMe1 (laptop3);
	// AVDElectronics is US. So laptops 1 and 3 survive.
	if s2.Ext.Len() != 2 {
		t.Fatalf("extension = %v", s2.Ext.Items())
	}
	if !s2.Ext.Has(pe("laptop1")) || !s2.Ext.Has(pe("laptop3")) {
		t.Errorf("extension = %v", s2.Ext.Items())
	}
	// The intention records the condition.
	if len(s2.Int.Conds) != 1 || s2.Int.Conds[0].Value != pe("Asia") {
		t.Errorf("intention = %s", s2.Int)
	}
}

func TestClickValueSimple(t *testing.T) {
	m := model(t)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	s2 := m.ClickValue(s, Path{{P: pe("manufacturer")}}, pe("DELL"))
	if s2.Ext.Len() != 2 {
		t.Fatalf("DELL laptops = %d", s2.Ext.Len())
	}
	// Further restriction: USB = 4 leaves laptop2.
	s3 := m.ClickValue(s2, Path{{P: pe("USBPorts")}}, rdf.NewInteger(4))
	if s3.Ext.Len() != 1 || !s3.Ext.Has(pe("laptop2")) {
		t.Fatalf("ext = %v", s3.Ext.Items())
	}
}

func TestClickValueSet(t *testing.T) {
	m := model(t)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	s2 := m.ClickValueSet(s, Path{{P: pe("manufacturer")}}, []rdf.Term{pe("DELL"), pe("Lenovo")})
	if s2.Ext.Len() != 3 {
		t.Fatalf("ext = %d", s2.Ext.Len())
	}
}

func TestClickRange(t *testing.T) {
	m := model(t)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	// USBPorts >= 2 keeps all three; > 2 keeps laptop2 only.
	s2 := m.ClickRange(s, Path{{P: pe("USBPorts")}}, ">=", rdf.NewInteger(2))
	if s2.Ext.Len() != 3 {
		t.Fatalf(">=2: %v", s2.Ext.Items())
	}
	s3 := m.ClickRange(s, Path{{P: pe("USBPorts")}}, ">", rdf.NewInteger(2))
	if s3.Ext.Len() != 1 || !s3.Ext.Has(pe("laptop2")) {
		t.Fatalf(">2: %v", s3.Ext.Items())
	}
	// Date ranges (Example 1: laptops made in 2021).
	s4 := m.ClickRange(s, Path{{P: pe("releaseDate")}}, ">=", rdf.NewTyped("2021-01-01", rdf.XSDDate))
	if s4.Ext.Len() != 3 {
		t.Fatalf("date range: %v", s4.Ext.Items())
	}
	s5 := m.ClickRange(s, Path{{P: pe("releaseDate")}}, ">", rdf.NewTyped("2021-09-30", rdf.XSDDate))
	if s5.Ext.Len() != 1 || !s5.Ext.Has(pe("laptop3")) {
		t.Fatalf("date range: %v", s5.Ext.Items())
	}
}

func TestClickRangeOverPath(t *testing.T) {
	m := model(t)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	// GDP of manufacturer's origin > 50000: USA (70000) qualifies, China no.
	path := Path{{P: pe("manufacturer")}, {P: pe("origin")}, {P: pe("GDPPerCapita")}}
	s2 := m.ClickRange(s, path, ">", rdf.NewInteger(50000))
	if s2.Ext.Len() != 2 { // DELL laptops
		t.Fatalf("ext = %v", s2.Ext.Items())
	}
}

func TestInverseFacets(t *testing.T) {
	m := model(t)
	// Companies viewed through inverse manufacturer: who makes products.
	s := m.ClickClass(m.Start(), pe("Company"))
	facets := m.PropertyFacets(s, true)
	var inv *Facet
	for i := range facets {
		if facets[i].Inverse && facets[i].P == pe("manufacturer") {
			inv = &facets[i]
		}
	}
	if inv == nil {
		t.Fatal("inverse manufacturer facet missing")
	}
	// Values are products; count per product is 1 (each has one maker).
	if len(inv.Values) != 6 {
		t.Fatalf("inverse values = %v", inv.Values)
	}
	// Click a product restricts companies to its maker.
	s2 := m.ClickValue(s, Path{{P: pe("manufacturer"), Inverse: true}}, pe("laptop3"))
	if s2.Ext.Len() != 1 || !s2.Ext.Has(pe("Lenovo")) {
		t.Fatalf("ext = %v", s2.Ext.Items())
	}
}

// TestNoEmptyResults is the query-guidance invariant: every displayed
// transition marker leads to a non-empty extension.
func TestNoEmptyResults(t *testing.T) {
	m := model(t)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	for _, f := range m.PropertyFacets(s, true) {
		for _, vc := range f.Values {
			s2 := m.ClickValue(s, Path{{P: f.P, Inverse: f.Inverse}}, vc.Value)
			if s2.Ext.Len() == 0 {
				t.Errorf("marker %s=%s leads to empty extension", f.P.LocalName(), vc.Value.LocalName())
			}
			if s2.Ext.Len() != vc.Count {
				t.Errorf("marker %s=%s count %d != resulting extension %d",
					f.P.LocalName(), vc.Value.LocalName(), vc.Count, s2.Ext.Len())
			}
		}
	}
}

// TestIntentionExtensionAgreement: for every state reached by clicks, the
// intention evaluated via SPARQL (Table 5.2) returns exactly the extension
// computed set-wise (Table 5.1) — the E10 ablation's correctness basis.
func TestIntentionExtensionAgreement(t *testing.T) {
	m := model(t)
	states := []*State{
		m.ClickClass(m.Start(), pe("Laptop")),
	}
	s := states[0]
	s = m.ClickValue(s, Path{{P: pe("manufacturer")}}, pe("DELL"))
	states = append(states, s)
	s = m.ClickRange(s, Path{{P: pe("USBPorts")}}, ">=", rdf.NewInteger(2))
	states = append(states, s)
	s2 := m.ClickValue(m.ClickClass(m.Start(), pe("Laptop")),
		Path{{P: pe("hardDrive")}, {P: pe("manufacturer")}, {P: pe("origin")}, {P: pe("locatedAt")}},
		pe("Asia"))
	states = append(states, s2)
	for i, st := range states {
		ans, err := st.Int.Answer(m.G)
		if err != nil {
			t.Fatalf("state %d: %v\n%s", i, err, st.Int.ToSPARQL())
		}
		got := NewTermSet(ans...)
		if got.Len() != st.Ext.Len() {
			t.Errorf("state %d (%s): SPARQL gives %d, sets give %d\n%s",
				i, st.Int, got.Len(), st.Ext.Len(), st.Int.ToSPARQL())
			continue
		}
		for _, e := range st.Ext.Items() {
			if !got.Has(e) {
				t.Errorf("state %d: %v missing from SPARQL answer", i, e)
			}
		}
	}
}

func TestStartFrom(t *testing.T) {
	m := model(t)
	s := m.StartFrom([]rdf.Term{pe("laptop1"), pe("laptop2")})
	if s.Ext.Len() != 2 {
		t.Fatalf("ext = %d", s.Ext.Len())
	}
	facets := m.PropertyFacets(s, false)
	for _, f := range facets {
		if f.P == pe("manufacturer") {
			if len(f.Values) != 1 || f.Values[0].Value != pe("DELL") {
				t.Errorf("manufacturer facet: %v", f.Values)
			}
		}
	}
}

func TestStartExcludesSchemaEntities(t *testing.T) {
	m := model(t)
	s := m.Start()
	if s.Ext.Has(pe("Laptop")) || s.Ext.Has(pe("manufacturer")) {
		t.Error("schema entities leaked into the initial extension")
	}
	if !s.Ext.Has(pe("laptop1")) || !s.Ext.Has(pe("DELL")) {
		t.Error("individuals missing from the initial extension")
	}
}

func TestTermSetBasics(t *testing.T) {
	s := NewTermSet(pe("a"), pe("b"), pe("a"))
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	items := s.Items()
	if len(items) != 2 || items[1].Less(items[0]) {
		t.Fatalf("items unsorted: %v", items)
	}
	s.Add(pe("c"))
	if len(s.Items()) != 3 {
		t.Fatal("Items stale after Add")
	}
}

func TestMaxValuesCap(t *testing.T) {
	m := model(t)
	m.MaxValues = 1
	s := m.ClickClass(m.Start(), pe("Laptop"))
	for _, f := range m.PropertyFacets(s, false) {
		if len(f.Values) > 1 {
			t.Errorf("facet %s not capped: %d values", f.P.LocalName(), len(f.Values))
		}
	}
}

func BenchmarkPropertyFacets(b *testing.B) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 500, Companies: 10, Seed: 1, Materialize: true})
	m := NewModel(g)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	b.ResetTimer()
	for b.Loop() {
		m.PropertyFacets(s, false)
	}
}

// BenchmarkEvalStrategies is the E10 ablation: set-based vs SPARQL-only
// computation of a state's extension.
func BenchmarkEvalStrategies(b *testing.B) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 500, Companies: 10, Seed: 1, Materialize: true})
	m := NewModel(g)
	s0 := m.ClickClass(m.Start(), pe("Laptop"))
	path := Path{{P: pe("manufacturer")}, {P: pe("origin")}}
	vals := m.ExpandPath(s0, path)
	if len(vals) == 0 {
		b.Fatal("no expansion values")
	}
	target := vals[0].Value
	b.Run("sets", func(b *testing.B) {
		for b.Loop() {
			m.ClickValue(s0, path, target)
		}
	})
	b.Run("sparql", func(b *testing.B) {
		st := m.ClickValue(s0, path, target)
		for b.Loop() {
			if _, err := st.Int.Answer(m.G); err != nil {
				b.Fatal(err)
			}
		}
	})
}
