package core

import (
	"fmt"
	"reflect"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// TestComputeUIStateConcurrentWrites runs Algorithm 5 while another
// goroutine adds and removes triples (meant for -race). Once the writer has
// stopped, the same state must render exactly as a fresh session's does at
// the final graph version: nothing resolved at an older version survives.
func TestComputeUIStateConcurrentWrites(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 80, Companies: 6, Seed: 4, Materialize: true})
	s := NewSession(g, datagen.ExampleNS)
	s.ClickClass(pe("Laptop"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			// New port counts intern new terms, so the version moves and
			// the extension's ID set must be re-resolved.
			tr := rdf.NewTriple(pe(fmt.Sprintf("laptop%d", 1+i%80)), pe("USBPorts"), rdf.NewInteger(int64(10+i)))
			g.Add(tr)
			if i%3 != 0 {
				g.Remove(tr)
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s.ComputeUIState(20, true)
	}
	got := s.ComputeUIState(20, true)
	fresh := NewSession(g, datagen.ExampleNS)
	fresh.ClickClass(pe("Laptop"))
	want := fresh.ComputeUIState(20, true)
	if !reflect.DeepEqual(got.Classes, want.Classes) || !reflect.DeepEqual(got.Facets, want.Facets) {
		t.Fatalf("facets after concurrent writes differ from a fresh render:\n got %+v\nwant %+v", got.Facets, want.Facets)
	}
}
