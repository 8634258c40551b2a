package facet

import (
	"math"

	"rdfanalytics/internal/rdf"
)

// Bucket is one interval of a numeric facet: [Lo, Hi) except the last
// bucket, which is closed. Count is the number of extension members whose
// value falls inside.
type Bucket struct {
	Lo, Hi float64
	Count  int
}

// Contains reports whether v falls in the bucket (last=true closes Hi).
func (b Bucket) Contains(v float64, last bool) bool {
	if last {
		return v >= b.Lo && v <= b.Hi
	}
	return v >= b.Lo && v < b.Hi
}

// NumericBuckets partitions the numeric values of facet p over the state's
// extension into n equal-width buckets with counts — the data behind the
// range-filter form of Example 3 (§5.1). Entities with several values count
// once per distinct bucket. Returns nil when fewer than two distinct
// numeric values exist (a plain value facet serves better then). Each
// distinct value is decoded once.
func (m *Model) NumericBuckets(s *State, p rdf.Term, n int) []Bucket {
	if n <= 0 {
		n = 5
	}
	type decoded struct {
		v  float64
		ok bool
	}
	type point struct {
		entity rdf.ID
		value  float64
	}
	values := map[rdf.ID]decoded{}
	var points []point
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ed := range m.edgesFrom(m.ids(s.Ext), p) {
		d, seen := values[ed.o]
		if !seen {
			d.v, d.ok = m.G.TermOf(ed.o).Float()
			values[ed.o] = d
		}
		if !d.ok {
			continue
		}
		points = append(points, point{ed.s, d.v})
		lo = math.Min(lo, d.v)
		hi = math.Max(hi, d.v)
	}
	// Fewer than two distinct values: none, or all equal to lo.
	if len(points) == 0 || lo == hi {
		return nil
	}
	width := (hi - lo) / float64(n)
	buckets := make([]Bucket, n)
	for i := range buckets {
		buckets[i] = Bucket{Lo: lo + float64(i)*width, Hi: lo + float64(i+1)*width}
	}
	buckets[n-1].Hi = hi
	// Count each (entity, bucket) pair once.
	type entityBucket struct {
		entity rdf.ID
		bucket int
	}
	seen := map[entityBucket]struct{}{}
	for _, pt := range points {
		idx := min(int((pt.value-lo)/width), n-1)
		key := entityBucket{pt.entity, idx}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		buckets[idx].Count++
	}
	return buckets
}
