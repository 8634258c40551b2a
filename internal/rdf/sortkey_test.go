package rdf

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// refTime is the four-layout parse Term.Time replaced: every layout is tried
// in order, whatever the value's shape.
func refTime(t Term) (time.Time, bool) {
	if t.Kind != KindLiteral {
		return time.Time{}, false
	}
	v := strings.TrimSpace(t.Value)
	for _, layout := range []string{
		"2006-01-02T15:04:05Z07:00",
		"2006-01-02T15:04:05",
		"2006-01-02Z07:00",
		"2006-01-02",
	} {
		if tm, err := time.Parse(layout, v); err == nil {
			return tm, true
		}
	}
	return time.Time{}, false
}

// refLess is the comparison Term.Less made before sort keys: it re-parses
// numeric and temporal values on every call.
func refLess(t, u Term) bool {
	if t.Kind != u.Kind {
		return t.Kind < u.Kind
	}
	if t.Kind == KindLiteral && t.IsNumeric() && u.IsNumeric() {
		a, okA := t.Float()
		b, okB := u.Float()
		if okA && okB && a != b {
			return a < b
		}
	}
	if t.IsTemporal() && u.IsTemporal() {
		a, okA := refTime(t)
		b, okB := refTime(u)
		if okA && okB && !a.Equal(b) {
			return a.Before(b)
		}
	}
	if t.Value != u.Value {
		return t.Value < u.Value
	}
	if t.Datatype != u.Datatype {
		return t.Datatype < u.Datatype
	}
	return t.Lang < u.Lang
}

// timeCases are the lexical forms TestTermTimeMatchesReference and the
// FuzzTermTime seeds cover: datagen release dates, the conformance corpus's
// temporal literals, zone offsets, surrounding whitespace and malformed
// input.
var timeCases = []string{
	"2019-01-01", "2021-06-10", "2023-12-28",
	"2021-01-10", "2021-03-02",
	"2021-06-01T16:30:00-04:00", "2021-06-01T20:00:00Z", "2021-06-01T23:00:00+05:00",
	"2021-12-31T23:59:59", "2021-06-10Z", "2021-06-10+02:00", "2021-06-10-11:30",
	" 2021-06-10 ", "\t2021-06-01T20:00:00Z\n", " 2021-06-10+02:00",
	"", "T", "2021-06-10T", "2021-06-10T25:00:00", "2021-13-01", "2021-02-30",
	"2021-06-10t10:00:00", "10:00:00", "2021-06", "not a date", "2021-06-10 10:00:00",
	"2021-06-10T10:00:00.5Z", "2021-06-10T10:00", "+2021-06-10", "2021-06-10ZT",
}

func TestTermTimeMatchesReference(t *testing.T) {
	for _, v := range timeCases {
		for _, dt := range []string{XSDDate, XSDDateTime, XSDString} {
			term := NewTyped(v, dt)
			got, ok := term.Time()
			want, wantOK := refTime(term)
			if ok != wantOK || !got.Equal(want) || got.String() != want.String() {
				t.Errorf("Time(%q^^%s) = %v, %v; reference %v, %v", v, dt, got, ok, want, wantOK)
			}
		}
	}
	if _, ok := NewIRI("2021-06-10").Time(); ok {
		t.Error("an IRI must not parse as a time")
	}
}

// FuzzTermTime checks the shape-selected layouts against the four-layout
// reference on arbitrary lexical forms.
func FuzzTermTime(f *testing.F) {
	for _, v := range timeCases {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		term := NewTyped(v, XSDDateTime)
		got, ok := term.Time()
		want, wantOK := refTime(term)
		if ok != wantOK || !got.Equal(want) || got.String() != want.String() {
			t.Fatalf("Time(%q) = %v, %v; reference %v, %v", v, got, ok, want, wantOK)
		}
	})
}

// randomTerm draws from the term shapes whose order Less special-cases:
// numeric literals of several datatypes (including equal values with
// different lexical forms such as "1" and "1.0"), dates and dateTimes with
// zone offsets, plain and language-tagged strings, IRIs and blank nodes.
func randomTerm(rng *rand.Rand) Term { return randomTermOf(rng, rng.Intn(termShapes)) }

// termShapes is the number of shapes randomTermOf draws from.
const termShapes = 8

// randomTermOf draws a term of one shape.
func randomTermOf(rng *rand.Rand, shape int) Term {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	switch shape {
	case 0:
		return NewTyped(pick("1", "1.0", "01", "-0", "0", "2.5", "2.50", "10", "9", "1e1", "abc", " 3 "),
			pick(XSDInteger, XSDDecimal, XSDDouble, XSDFloat, XSDInt))
	case 1:
		return NewTyped(fmt.Sprintf("2021-06-%02d%s", 1+rng.Intn(3), pick("", "Z", "+02:00", "-05:00")), XSDDate)
	case 2:
		return NewTyped(fmt.Sprintf("2021-06-01T%02d:00:00%s", 8+rng.Intn(6), pick("", "Z", "+02:00", "-04:00")), XSDDateTime)
	case 3:
		return NewTyped(pick("2021-06-01", "garbage", "2021-06-01T10:00:00Z"), pick(XSDDate, XSDDateTime, XSDString))
	case 4:
		return NewLangString(pick("a", "b", "1", "2021-06-01"), pick("en", "de", "en-GB"))
	case 5:
		return NewString(pick("a", "b", "1", "10", "2021-06-01"))
	case 6:
		return NewIRI(pick("http://e/a", "http://e/b", "urn:x"))
	default:
		return NewBlank(pick("b0", "b1", "a"))
	}
}

// TestSortKeyMatchesLess is the property that lets sorts decode each term
// once: on random mixed terms, SortKey.Compare agrees with the reference
// comparison in both directions, and Term.Less is that same order.
func TestSortKeyMatchesLess(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		a, b := randomTerm(rng), randomTerm(rng)
		ka, kb := a.SortKey(), b.SortKey()
		c := ka.Compare(&kb)
		want := 0
		switch {
		case refLess(a, b):
			want = -1
		case refLess(b, a):
			want = 1
		}
		if c != want || kb.Compare(&ka) != -want {
			t.Fatalf("Compare(%v, %v) = %d, reference %d", a, b, c, want)
		}
		if a.Less(b) != refLess(a, b) {
			t.Fatalf("Less(%v, %v) = %v, reference %v", a, b, a.Less(b), refLess(a, b))
		}
		if (c == 0) != (a == b) {
			t.Fatalf("Compare(%v, %v) = 0 for distinct terms", a, b)
		}
	}
}

// TestSortTermsMatchesReferenceSort sorts random term lists of one ordering
// regime at a time — one kind, and all numeric, all temporal or all
// neither, where the order is a strict weak order and the sorted sequence
// unique — and compares with sort.Slice over the reference.
func TestSortTermsMatchesReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 400; round++ {
		shape := rng.Intn(termShapes)
		first := randomTermOf(rng, shape).SortKey()
		seen := map[Term]bool{first.Term: true}
		ts := []Term{first.Term}
		for i := 0; i < 60; i++ {
			k := randomTermOf(rng, shape).SortKey()
			if !seen[k.Term] && k.Term.Kind == first.Term.Kind && k.class == first.class {
				seen[k.Term] = true
				ts = append(ts, k.Term)
			}
		}
		want := append([]Term(nil), ts...)
		sort.Slice(want, func(i, j int) bool { return refLess(want[i], want[j]) })
		SortTerms(ts)
		for i := range ts {
			if ts[i] != want[i] {
				t.Fatalf("round %d: SortTerms = %v, reference %v", round, ts, want)
			}
		}
	}
}
