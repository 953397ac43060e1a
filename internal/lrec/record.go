// Package lrec implements the paper's core representation (§2.2): the
// loosely-structured record, or lrec — a flat collection of
// (attribute-key, value) pairs with a distinguished unique id and an
// associated concept — together with concept/domain metadata, provenance
// (lineage), confidence, versions, and a persistent log-structured store
// with secondary indexes.
package lrec

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"conceptweb/internal/textproc"
)

// Errors returned by the package.
var (
	ErrNotFound        = errors.New("lrec: record not found")
	ErrNoID            = errors.New("lrec: record has no id")
	ErrNoConcept       = errors.New("lrec: record has no concept")
	ErrUnknownConcept  = errors.New("lrec: concept not registered")
	ErrDuplicateID     = errors.New("lrec: duplicate record id")
	ErrConceptMismatch = errors.New("lrec: merging records of different concepts")
)

// Provenance records where a value came from: the source document and the
// chain of operators that produced it (§7.3 "managing lineage"). Seq is the
// store's logical clock at extraction time, giving a total order without
// wall-clock nondeterminism.
type Provenance struct {
	SourceURL string
	Operators []string
	Seq       uint64
}

// String renders the provenance compactly, e.g.
// "welp.example/biz/gochi via listextract>match @17".
func (p Provenance) String() string {
	ops := strings.Join(p.Operators, ">")
	if ops == "" {
		ops = "?"
	}
	return fmt.Sprintf("%s via %s @%d", p.SourceURL, ops, p.Seq)
}

// AttrValue is one extracted value of an attribute, with its confidence
// in (0, 1] and provenance. A record may hold several AttrValues for one
// key — conflicting phone numbers from two sources, say — which is exactly
// the uncertainty §7.3 requires us to track rather than discard.
type AttrValue struct {
	Value      string
	Confidence float64
	Prov       Provenance
	// Support counts how many independent extractions produced this value
	// (duplicates merged by Add accumulate here); reconciliation prefers
	// well-supported values.
	Support int
}

// Record is a loosely-structured record: a concept name, a unique ID, and
// multi-valued attributes. The zero value is empty but usable.
type Record struct {
	ID      string
	Concept string
	Attrs   map[string][]AttrValue
	Version uint64
	Deleted bool
}

// NewRecord returns an empty record of the given concept.
func NewRecord(id, concept string) *Record {
	return &Record{ID: id, Concept: concept, Attrs: make(map[string][]AttrValue)}
}

// Set replaces all values of key with the single given value at full
// confidence and no provenance — convenient for ground truth and tests.
func (r *Record) Set(key, value string) *Record {
	if r.Attrs == nil {
		r.Attrs = make(map[string][]AttrValue)
	}
	r.Attrs[key] = []AttrValue{{Value: value, Confidence: 1}}
	return r
}

// Add appends a value for key, keeping existing values. Duplicate values
// (after normalization) are merged, keeping the higher confidence and the
// earlier provenance.
func (r *Record) Add(key string, v AttrValue) {
	if r.Attrs == nil {
		r.Attrs = make(map[string][]AttrValue)
	}
	if v.Confidence <= 0 || v.Confidence > 1 {
		v.Confidence = clamp01(v.Confidence)
	}
	if v.Support <= 0 {
		v.Support = 1
	}
	norm := textproc.Normalize(v.Value)
	for i, old := range r.Attrs[key] {
		if textproc.EqualsNormalized(old.Value, norm) {
			if v.Confidence > old.Confidence {
				old.Confidence = v.Confidence
				old.Value = v.Value
			}
			old.Support += v.Support
			r.Attrs[key][i] = old
			return
		}
	}
	r.Attrs[key] = append(r.Attrs[key], v)
}

func clamp01(c float64) float64 {
	if c <= 0 {
		return 0.01
	}
	if c > 1 {
		return 1
	}
	return c
}

// Get returns the highest-confidence value for key, or "" if absent.
func (r *Record) Get(key string) string {
	vals := r.Attrs[key]
	if len(vals) == 0 {
		return ""
	}
	return vals[bestOf(vals)].Value
}

// Best returns the highest-confidence AttrValue for key. Ties are broken by
// lexicographic value for determinism.
func (r *Record) Best(key string) (AttrValue, bool) {
	vals := r.Attrs[key]
	if len(vals) == 0 {
		return AttrValue{}, false
	}
	return vals[bestOf(vals)], true
}

// bestOf returns the index of Best's choice among vals, which is not empty.
// It compares in place: an AttrValue is 80 bytes, and Get reads only one.
func bestOf(vals []AttrValue) int {
	b := 0
	for i := 1; i < len(vals); i++ {
		if v := &vals[i]; v.Confidence > vals[b].Confidence ||
			(v.Confidence == vals[b].Confidence && v.Value < vals[b].Value) {
			b = i
		}
	}
	return b
}

// All returns every value stored for key (may be empty).
func (r *Record) All(key string) []AttrValue { return r.Attrs[key] }

// Keys returns the record's attribute keys in sorted order.
func (r *Record) Keys() []string {
	keys := make([]string, 0, len(r.Attrs))
	for k := range r.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Has reports whether the record has at least one value for key.
func (r *Record) Has(key string) bool { return len(r.Attrs[key]) > 0 }

// Confidence returns the record-level confidence: the mean of the best
// per-attribute confidences. An empty record has confidence 0. The best
// confidences are summed in ascending order, not in map order, so the result
// is one bit pattern however the map iterates.
func (r *Record) Confidence() float64 {
	if len(r.Attrs) == 0 {
		return 0
	}
	var buf [32]float64
	confs := buf[:0]
	for _, vals := range r.Attrs {
		if len(vals) > 0 {
			confs = append(confs, vals[bestOf(vals)].Confidence)
		}
	}
	slices.Sort(confs)
	var sum float64
	for _, c := range confs {
		sum += c
	}
	return sum / float64(len(r.Attrs))
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	c := &Record{ID: r.ID, Concept: r.Concept, Version: r.Version, Deleted: r.Deleted}
	c.Attrs = make(map[string][]AttrValue, len(r.Attrs))
	for k, vals := range r.Attrs {
		cp := make([]AttrValue, len(vals))
		copy(cp, vals)
		// Deep-copy the operator slices inside provenance.
		for i := range cp {
			if len(cp[i].Prov.Operators) > 0 {
				ops := make([]string, len(cp[i].Prov.Operators))
				copy(ops, cp[i].Prov.Operators)
				cp[i].Prov.Operators = ops
			}
		}
		c.Attrs[k] = cp
	}
	return c
}

// Merge folds other's attribute values into r. Both records must belong to
// the same concept. r keeps its ID; this is the primitive the entity-matching
// layer uses after deciding two records are co-referent.
func (r *Record) Merge(other *Record) error {
	if other.Concept != r.Concept {
		return fmt.Errorf("%w: %q vs %q", ErrConceptMismatch, r.Concept, other.Concept)
	}
	for k, vals := range other.Attrs {
		for _, v := range vals {
			r.Add(k, v)
		}
	}
	return nil
}

// FlatText renders the record as searchable text: "key value" pairs of the
// best values, sorted by key. This is how lrecs are fed to the inverted
// index, per the paper's stipulation that the representation stay compatible
// with search-engine infrastructure.
func (r *Record) FlatText() string {
	var b strings.Builder
	for _, k := range r.Keys() {
		if v, ok := r.Best(k); ok {
			b.WriteString(k)
			b.WriteByte(' ')
			b.WriteString(v.Value)
			b.WriteByte(' ')
		}
	}
	return strings.TrimSpace(b.String())
}

// String renders the record for debugging.
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s]{", r.Concept, r.ID)
	for i, k := range r.Keys() {
		if i > 0 {
			b.WriteString(", ")
		}
		v, _ := r.Best(k)
		fmt.Fprintf(&b, "%s=%q", k, v.Value)
	}
	b.WriteByte('}')
	return b.String()
}
