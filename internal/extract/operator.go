// Package extract implements the paper's extraction layer (§4): a common
// operator framework with lineage and confidence propagation, plus three
// extractor families —
//
//   - wrapper induction (site-centric structural baseline, §4.1),
//   - a sequence tagger trained with the structured perceptron
//     (site-centric semantic baseline, the paper's CRF stand-in, §4.1),
//   - domain-centric list extraction combining repeated HTML structure with
//     domain knowledge and statistical constraints (§4.2), which is the
//     technique the paper argues makes a web of concepts feasible.
package extract

import (
	"fmt"
	"sort"
	"strings"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgraph"
)

// Candidate is a proto-record produced by an extraction operator: attribute
// values with confidences, plus lineage (source page and operator chain).
// Candidates become lrecs once an ID is assigned.
type Candidate struct {
	Concept    string
	Attrs      map[string][]lrec.AttrValue
	SourceURL  string
	Operators  []string
	Confidence float64
}

// NewCandidate returns an empty candidate for concept extracted from url by
// operator op.
func NewCandidate(concept, url, op string) *Candidate {
	return &Candidate{
		Concept:    concept,
		Attrs:      make(map[string][]lrec.AttrValue),
		SourceURL:  url,
		Operators:  []string{op},
		Confidence: 1,
	}
}

// Add records an attribute value with the candidate's lineage attached.
func (c *Candidate) Add(key, value string, conf float64) {
	if strings.TrimSpace(value) == "" {
		return
	}
	vals := c.Attrs[key]
	if len(vals) > 0 { // the first value of a key, the usual case, has nothing to duplicate
		norm := textproc.Normalize(value)
		for _, v := range vals {
			if textproc.Normalize(v.Value) == norm {
				return
			}
		}
	}
	c.Attrs[key] = append(vals, lrec.AttrValue{
		Value:      value,
		Confidence: conf,
		Prov:       lrec.Provenance{SourceURL: c.SourceURL, Operators: c.Operators},
	})
}

// Get returns the first value for key, or "".
func (c *Candidate) Get(key string) string {
	if vs := c.Attrs[key]; len(vs) > 0 {
		return vs[0].Value
	}
	return ""
}

// Keys returns the candidate's attribute keys, sorted.
func (c *Candidate) Keys() []string {
	out := make([]string, 0, len(c.Attrs))
	for k := range c.Attrs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Chain returns a copy of the candidate with op appended to its operator
// chain and confidence scaled by factor — how downstream operators (e.g.
// matchers) record their participation in lineage (§7.3).
func (c *Candidate) Chain(op string, factor float64) *Candidate {
	cp := &Candidate{
		Concept:    c.Concept,
		Attrs:      make(map[string][]lrec.AttrValue, len(c.Attrs)),
		SourceURL:  c.SourceURL,
		Operators:  append(append([]string(nil), c.Operators...), op),
		Confidence: c.Confidence * factor,
	}
	for k, vs := range c.Attrs {
		nvs := make([]lrec.AttrValue, len(vs))
		copy(nvs, vs)
		for i := range nvs {
			nvs[i].Confidence *= factor
			nvs[i].Prov.Operators = cp.Operators
		}
		cp.Attrs[k] = nvs
	}
	return cp
}

// ToRecord converts the candidate into an lrec with the given id, stamping
// provenance sequence numbers from seq.
func (c *Candidate) ToRecord(id string, seq uint64) *lrec.Record {
	r := lrec.NewRecord(id, c.Concept)
	for k, vs := range c.Attrs {
		for _, v := range vs {
			v.Prov.Seq = seq
			r.Add(k, v)
		}
	}
	return r
}

// SynthesizeID builds a deterministic record ID from the candidate's
// identifying attributes: concept:normalized(name|title):qualifier, where
// the qualifier prefers phone digits (the strongest natural key — two
// businesses whose truncated names coincide still differ by phone), then
// zip, city, year. Two candidates describing the same instance from
// different sources get the same ID only if their names normalize
// identically — entity matching (internal/match) handles the rest.
func (c *Candidate) SynthesizeID() string {
	name := c.Get("name")
	if name == "" {
		name = c.Get("title")
	}
	qual := phoneDigits(c.Get("phone"))
	if qual == "" {
		qual = c.Get("zip")
	}
	if qual == "" {
		// Dated instances (events) are distinguished by date before place:
		// two "Jazz Concert"s in one city on different days are different
		// instances.
		qual = c.Get("date")
	}
	if qual == "" {
		qual = c.Get("city")
	}
	if qual == "" {
		qual = c.Get("year")
	}
	base := textproc.NormalizeKey(name)
	if base == "" {
		// Fall back to a content hash of all attributes.
		base = fmt.Sprintf("h%08x", webgraph.HashContent(flatten(c)))
	}
	id := c.Concept + ":" + base
	if q := textproc.NormalizeKey(qual); q != "" {
		id += ":" + q
	}
	return id
}

// phoneDigits extracts the digits of a phone value ("" if too few).
func phoneDigits(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			out = append(out, s[i])
		}
	}
	if len(out) < 7 {
		return ""
	}
	return string(out)
}

func flatten(c *Candidate) string {
	var b strings.Builder
	for _, k := range c.Keys() {
		for _, v := range c.Attrs[k] {
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(v.Value)
			b.WriteByte(';')
		}
	}
	return b.String()
}

// Operator is one extraction step: given a crawled page, produce candidates.
// Implementations: ListExtractor, Wrapper, CitationExtractor, and the
// bootstrapping and matching layers built on top.
type Operator interface {
	// Name identifies the operator in lineage chains.
	Name() string
	// Extract returns candidate records found on the page (possibly none),
	// analyzing the page privately.
	Extract(p *webgraph.Page) []*Candidate
	// ExtractAnalyzed is Extract over a shared PageAnalysis, so operators
	// (and domains) running over the same page reuse one set of DOM passes
	// instead of each re-walking the tree.
	ExtractAnalyzed(pa *PageAnalysis) []*Candidate
}

// Pipeline runs several operators over a page sequence, concatenating their
// candidates. It is deliberately simple: cross-operator reconciliation is
// the job of internal/core, which owns the store.
type Pipeline struct {
	Ops []Operator
}

// Run applies every operator to every page, analyzing each page once.
func (pl *Pipeline) Run(pages []*webgraph.Page) []*Candidate {
	var out []*Candidate
	for _, p := range pages {
		pa := Analyze(p)
		for _, op := range pl.Ops {
			out = append(out, op.ExtractAnalyzed(pa)...)
		}
	}
	return out
}
