package facet

import (
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

func TestNumericBuckets(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 200, Companies: 8, Seed: 5, Materialize: true})
	m := NewModel(g)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	buckets := m.NumericBuckets(s, pe("price"), 4)
	if len(buckets) != 4 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	total := 0
	for i, b := range buckets {
		if b.Hi < b.Lo {
			t.Errorf("bucket %d inverted: %+v", i, b)
		}
		if i > 0 && b.Lo != buckets[i-1].Hi {
			t.Errorf("bucket %d not contiguous", i)
		}
		total += b.Count
	}
	// Every laptop has exactly one price: counts sum to the extension size.
	if total != s.Ext.Len() {
		t.Errorf("bucket counts sum to %d, extension is %d", total, s.Ext.Len())
	}
}

func TestNumericBucketsDegenerate(t *testing.T) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:a ex:v 5 . ex:b ex:v 5 .
`)
	m := NewModel(g)
	s := m.Start()
	if b := m.NumericBuckets(s, rdf.NewIRI("http://e/v"), 3); b != nil {
		t.Errorf("single distinct value must yield nil, got %v", b)
	}
	// Non-numeric property.
	if b := m.NumericBuckets(s, rdf.NewIRI(rdf.RDFType), 3); b != nil {
		t.Errorf("non-numeric property must yield nil, got %v", b)
	}
}

// TestClickBucketMatchesCount checks bucket soundness: each bucket's count
// equals the size of the extension its range selects, reached with the two
// range clicks the GUI's bucket links send.
func TestClickBucketMatchesCount(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 150, Companies: 8, Seed: 9, Materialize: true})
	m := NewModel(g)
	s := m.ClickClass(m.Start(), pe("Laptop"))
	price := Path{{P: pe("price")}}
	buckets := m.NumericBuckets(s, pe("price"), 5)
	for i, b := range buckets {
		upper := "<"
		if i == len(buckets)-1 {
			upper = "<=" // the last bucket is closed
		}
		s2 := m.ClickRange(m.ClickRange(s, price, ">=", rdf.NewDecimal(b.Lo)), price, upper, rdf.NewDecimal(b.Hi))
		if s2.Ext.Len() != b.Count {
			t.Errorf("bucket %d: click gives %d, count says %d", i, s2.Ext.Len(), b.Count)
		}
	}
}
