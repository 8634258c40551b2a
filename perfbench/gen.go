package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

const ns = datagen.ExampleNS

// Input size: 2000 laptops give about 18k triples after RDFS
// materialization, the size at which a faceted click costs tens of
// milliseconds.
const (
	laptopCount = 2000
	companies   = 16
)

// dataset is one seed's generated products KG, written as a binary
// snapshot that the server loads, plus what the load generator needs to
// know about it to pick requests and check answers.
type dataset struct {
	path    string
	triples int
	laptops []string          // laptop IRIs
	makers  []string          // laptop-manufacturer IRIs
	makerOf map[string]string // laptop IRI -> manufacturer IRI
	rating  map[string]int    // laptop IRI -> seeded rating (mixed-write)
}

// makeDataset generates the products KG for seed, adds one ex:rating per
// laptop when ratings is set, and writes it to dir as a .rdfb snapshot.
func makeDataset(dir string, seed int64, ratings bool) (*dataset, error) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: laptopCount, Companies: companies, Seed: seed, Materialize: true})
	ds := &dataset{makerOf: map[string]string{}}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	makerP := rdf.NewIRI(ns + "manufacturer")
	seen := map[string]bool{}
	for i := 1; i <= laptopCount; i++ {
		l := fmt.Sprintf("%slaptop%d", ns, i)
		ds.laptops = append(ds.laptops, l)
		g.Match(rdf.NewIRI(l), makerP, rdf.Any, func(t rdf.Triple) bool {
			ds.makerOf[l] = t.O.Value
			if !seen[t.O.Value] {
				seen[t.O.Value] = true
				ds.makers = append(ds.makers, t.O.Value)
			}
			return false
		})
	}
	if ratings {
		ds.rating = map[string]int{}
		ratingP := rdf.NewIRI(ns + "rating")
		for _, l := range ds.laptops {
			r := 1 + rng.Intn(5)
			ds.rating[l] = r
			g.Add(rdf.Triple{S: rdf.NewIRI(l), P: ratingP, O: rdf.NewInteger(int64(r))})
		}
	}
	ds.triples = g.Len()
	ds.path = filepath.Join(dir, "products.rdfb")
	f, err := os.Create(ds.path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err := g.WriteBinary(w); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return ds, f.Close()
}

// loadGraph reads the snapshot the server was given, so that references
// run on exactly the graph the server holds.
func loadGraph(path string) (*rdf.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rdf.ReadBinary(bufio.NewReader(f))
}

const prefix = "PREFIX ex: <" + ns + ">\n"

// Mixed-write invariant reads: every laptop has exactly one rating, and a
// re-rating replaces it, so both counts always equal the laptop count. A
// read that sees a re-rating half applied (its DELETE done, its INSERT not
// yet) counts fewer: a torn read.
var invariantReads = []string{
	prefix + "SELECT (COUNT(*) AS ?n) WHERE { ?l ex:rating ?r }",
	prefix + "SELECT (COUNT(DISTINCT ?l) AS ?n) WHERE { ?l a ex:Laptop ; ex:rating ?r }",
}

// reRating is one seeded SPARQL update: it sets the rating of one laptop or
// of every laptop of one manufacturer to value.
type reRating struct {
	laptop, maker string
	value         int
	text          string
}

func newReRating(ds *dataset, rng *rand.Rand, manufacturerShare float64) reRating {
	r := reRating{value: 1 + rng.Intn(5)}
	if rng.Float64() < manufacturerShare {
		r.maker = ds.makers[rng.Intn(len(ds.makers))]
		r.text = fmt.Sprintf(prefix+"DELETE { ?l ex:rating ?r } INSERT { ?l ex:rating %d } WHERE { ?l ex:manufacturer <%s> ; ex:rating ?r }", r.value, r.maker)
	} else {
		r.laptop = ds.laptops[rng.Intn(len(ds.laptops))]
		r.text = fmt.Sprintf(prefix+"DELETE { <%s> ex:rating ?r } INSERT { <%s> ex:rating %d } WHERE { <%s> ex:rating ?r }", r.laptop, r.laptop, r.value, r.laptop)
	}
	return r
}

// apply folds an acknowledged re-rating into the expected ratings.
func (r reRating) apply(want map[string]int, ds *dataset) {
	if r.laptop != "" {
		want[r.laptop] = r.value
		return
	}
	for _, l := range ds.laptops {
		if ds.makerOf[l] == r.maker {
			want[l] = r.value
		}
	}
}
