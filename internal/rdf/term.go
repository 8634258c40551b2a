// Package rdf implements the Resource Description Framework data model:
// terms (IRIs, blank nodes, literals), triples, an in-memory indexed graph
// store with dictionary encoding, N-Triples and Turtle I/O, and RDFS
// inference (subclass/subproperty closure, domain/range typing).
//
// The package is the storage substrate of the RDF-Analytics reproduction:
// the SPARQL engine (internal/sparql), the HIFUN translator (internal/hifun)
// and the faceted-search model (internal/facet) all operate on rdf.Graph.
package rdf

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// KindIRI identifies IRI reference terms.
	KindIRI TermKind = iota
	// KindBlank identifies blank-node terms.
	KindBlank
	// KindLiteral identifies literal terms (plain, typed or language-tagged).
	KindLiteral
)

func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindBlank:
		return "BlankNode"
	case KindLiteral:
		return "Literal"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. Terms are immutable value types; two terms are
// equal iff all their fields are equal, so Term is usable as a map key.
type Term struct {
	// Kind says which of the three RDF term kinds this is.
	Kind TermKind
	// Value holds the IRI string, the blank node label (without "_:") or the
	// literal lexical form.
	Value string
	// Datatype holds the datatype IRI for literals ("" means xsd:string /
	// plain). Unused for IRIs and blank nodes.
	Datatype string
	// Lang holds the language tag for language-tagged literals.
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewBlank returns a blank-node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewString returns a plain string literal.
func NewString(s string) Term {
	return Term{Kind: KindLiteral, Value: s, Datatype: XSDString}
}

// NewLangString returns a language-tagged string literal.
func NewLangString(s, lang string) Term {
	return Term{Kind: KindLiteral, Value: s, Datatype: RDFLangString, Lang: lang}
}

// NewTyped returns a literal with an explicit datatype IRI.
func NewTyped(lexical, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: datatype}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(i int64) Term {
	return NewTyped(strconv.FormatInt(i, 10), XSDInteger)
}

// NewDecimal returns an xsd:decimal literal.
func NewDecimal(f float64) Term {
	return NewTyped(strconv.FormatFloat(f, 'f', -1, 64), XSDDecimal)
}

// NewDouble returns an xsd:double literal.
func NewDouble(f float64) Term {
	return NewTyped(strconv.FormatFloat(f, 'g', -1, 64), XSDDouble)
}

// NewBool returns an xsd:boolean literal.
func NewBool(b bool) Term {
	return NewTyped(strconv.FormatBool(b), XSDBoolean)
}

// NewDate returns an xsd:date literal from a time value (UTC date part).
func NewDate(t time.Time) Term {
	return NewTyped(t.Format("2006-01-02"), XSDDate)
}

// NewDateTime returns an xsd:dateTime literal.
func NewDateTime(t time.Time) Term {
	return NewTyped(t.Format("2006-01-02T15:04:05"), XSDDateTime)
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsResource reports whether the term can appear in subject position
// (IRI or blank node).
func (t Term) IsResource() bool { return t.Kind != KindLiteral }

// IsZero reports whether the term is the zero Term (no valid term).
func (t Term) IsZero() bool { return t == Term{} }

// IsNumeric reports whether the term is a literal of a numeric XSD datatype.
func (t Term) IsNumeric() bool {
	if t.Kind != KindLiteral {
		return false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble, XSDFloat, XSDInt, XSDLong,
		XSDShort, XSDByte, XSDNonNegativeInteger, XSDPositiveInteger,
		XSDNegativeInteger, XSDNonPositiveInteger, XSDUnsignedInt,
		XSDUnsignedLong:
		return true
	}
	return false
}

// IsTemporal reports whether the term is a literal of a temporal XSD
// datatype (xsd:date / xsd:dateTime), the ones whose value space is ordered
// chronologically rather than lexically.
func (t Term) IsTemporal() bool {
	if t.Kind != KindLiteral {
		return false
	}
	return t.Datatype == XSDDate || t.Datatype == XSDDateTime
}

// Float returns the numeric value of a numeric literal.
func (t Term) Float() (float64, bool) {
	if !t.IsNumeric() {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	if err != nil || math.IsNaN(f) {
		return 0, false
	}
	return f, true
}

// Int returns the integer value of an integer-typed literal.
func (t Term) Int() (int64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	i, err := strconv.ParseInt(strings.TrimSpace(t.Value), 10, 64)
	if err != nil {
		return 0, false
	}
	return i, true
}

// Bool returns the boolean value of an xsd:boolean literal.
func (t Term) Bool() (bool, bool) {
	if t.Kind != KindLiteral || t.Datatype != XSDBoolean {
		return false, false
	}
	switch t.Value {
	case "true", "1":
		return true, true
	case "false", "0":
		return false, true
	}
	return false, false
}

// Time parses xsd:date / xsd:dateTime literals. Only the layouts the
// lexical shape allows are tried: a "T" selects the two dateTime layouts,
// anything else the two date layouts, so a valid date parses without first
// failing on the dateTime ones.
func (t Term) Time() (time.Time, bool) {
	if t.Kind != KindLiteral {
		return time.Time{}, false
	}
	v := strings.TrimSpace(t.Value)
	layouts := dateLayouts
	if strings.IndexByte(v, 'T') >= 0 {
		layouts = dateTimeLayouts
	}
	for _, layout := range layouts {
		if tm, err := time.Parse(layout, v); err == nil {
			return tm, true
		}
	}
	return time.Time{}, false
}

// The accepted temporal layouts, zone-qualified first.
var (
	dateTimeLayouts = [...]string{"2006-01-02T15:04:05Z07:00", "2006-01-02T15:04:05"}
	dateLayouts     = [...]string{"2006-01-02Z07:00", "2006-01-02"}
)

// LocalName returns the fragment/last path segment of an IRI, or the plain
// value for other terms. It is what user interfaces display as a facet label.
func (t Term) LocalName() string {
	if t.Kind != KindIRI {
		return t.Value
	}
	v := t.Value
	if i := strings.LastIndexAny(v, "#/:"); i >= 0 && i < len(v)-1 {
		return v[i+1:]
	}
	return v
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	default:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" && t.Datatype != XSDString {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	}
}

// Less imposes a total order on terms: IRIs < blanks < literals, then by
// value, datatype and language (see SortKey.Compare). It is the order used
// by deterministic iteration helpers and result sorting. Less decodes both
// terms on every call; code that sorts many terms decodes each one once
// with SortKey instead.
func (t Term) Less(u Term) bool {
	tk, uk := t.SortKey(), u.SortKey()
	return tk.Compare(&uk) < 0
}

// SortKey is a term decoded for ordering: the term plus its numeric value
// (numeric literals) or instant (xsd:date / xsd:dateTime literals). Sorting
// n terms by key parses n values instead of two per comparison.
type SortKey struct {
	Term  Term
	class keyClass
	num   float64
	inst  time.Time
}

// keyClass says which decoded value, if any, a SortKey carries.
type keyClass uint8

const (
	keyLexical keyClass = iota
	keyNumeric
	keyTemporal
)

// SortKey decodes t's position in the Less order.
func (t Term) SortKey() SortKey {
	k := SortKey{Term: t}
	if t.Kind != KindLiteral {
		return k
	}
	if f, ok := t.Float(); ok {
		k.class, k.num = keyNumeric, f
	} else if t.IsTemporal() {
		if tm, ok := t.Time(); ok {
			k.class, k.inst = keyTemporal, tm
		}
	}
	return k
}

// Compare is the three-way term order on decoded keys: -1, 0 or +1 as k
// sorts before, equal to or after l. Keys are passed by pointer because
// sorts compare them far more often than they build them.
func (k *SortKey) Compare(l *SortKey) int {
	t, u := &k.Term, &l.Term
	if t.Kind != u.Kind {
		return cmp.Compare(t.Kind, u.Kind)
	}
	// Numeric literals order numerically so facet values display sensibly.
	if k.class == keyNumeric && l.class == keyNumeric && k.num != l.num {
		return cmp.Compare(k.num, l.num)
	}
	// Temporal literals order chronologically: timezone offsets and
	// non-canonical lexical forms make string order diverge from the value
	// space (e.g. "2021-06-01T12:00:00+02:00" is the same instant as
	// "2021-06-01T10:00:00Z" but sorts after it lexically). Distinct lexical
	// forms of the same instant fall through to the lexical tiebreak so the
	// order stays total and antisymmetric.
	if k.class == keyTemporal && l.class == keyTemporal {
		if c := k.inst.Compare(l.inst); c != 0 {
			return c
		}
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, u.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, u.Lang)
}

// SortTerms sorts ts by Less, decoding each term once. It sorts indices
// into the keys, so the large keys themselves are never moved.
func SortTerms(ts []Term) {
	keys := make([]SortKey, len(ts))
	order := make([]int32, len(ts))
	for i, t := range ts {
		keys[i] = t.SortKey()
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int { return keys[i].Compare(&keys[j]) })
	for i, k := range order {
		ts[i] = keys[k].Term
	}
}

func escapeLiteral(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Triple is an RDF statement.
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple from three terms.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples syntax (without trailing newline).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// Less orders triples by subject, predicate, object.
func (t Triple) Less(u Triple) bool {
	if t.S != u.S {
		return t.S.Less(u.S)
	}
	if t.P != u.P {
		return t.P.Less(u.P)
	}
	return t.O.Less(u.O)
}
