package extract

import (
	"slices"
	"strings"

	"conceptweb/internal/htmlx"
	"conceptweb/internal/webgraph"
)

// ListExtractor implements domain-centric list extraction (§4.2): it detects
// repeated HTML structure, then uses domain knowledge (field recognizers)
// and statistical constraints to decide which repeated structures are lists
// of records of the target concept, and to extract those records — fully
// unsupervised and site-independent.
//
// Extraction pays for what it keeps: most repeated items are navigation and
// chrome, so an item is first asked only for the domain's evidence — each
// evidence recognizer over its spans, then its full text — and an item
// without any builds no candidate and runs no other recognizer. It still
// counts toward its group's evidence fraction.
//
// A ListExtractor holds no mutable state: Extract reads only the page and
// the Domain, whose recognizers are stateless byte-scanning kernels or close
// over gazetteer maps frozen at construction. A Domain value may therefore
// be shared by extractors running concurrently on different goroutines.
type ListExtractor struct {
	Domain Domain
	// MinItems is the minimum number of repeated siblings to consider a
	// container a list (default 2).
	MinItems int
}

// Name implements Operator.
func (e *ListExtractor) Name() string { return internOpName("listextract:", e.Domain.Concept) }

// Extract implements Operator.
func (e *ListExtractor) Extract(p *webgraph.Page) []*Candidate {
	return e.ExtractAnalyzed(Analyze(p))
}

// ExtractAnalyzed implements Operator over a shared page analysis.
func (e *ListExtractor) ExtractAnalyzed(pa *PageAnalysis) []*Candidate {
	minItems := e.MinItems
	if minItems < 2 {
		minItems = 2
	}
	var out []*Candidate
	for _, group := range pa.Groups(minItems) {
		out = append(out, e.extractGroup(pa, group)...)
	}
	return out
}

// repeatedGroups finds maximal runs of sibling elements sharing a tag and
// class signature — the page's repeated template slots.
func repeatedGroups(doc *htmlx.Node, minItems int) [][]*htmlx.Node {
	groups, _ := siblingGroups(doc, minItems, nil)
	return groups
}

// siblingGroups is repeatedGroups' walk. Given a non-nil slots it also
// records there, for the sibling signature of every element whose parent is
// an element — of every node collectSingles can return, at any minItems —
// the size of the smallest sibling group it heads, and reports whether one
// of those elements has a '.' in its tag name, which makes its signature
// ambiguous. The parser never makes such a tag.
func siblingGroups(doc *htmlx.Node, minItems int, slots map[string]int) (groups [][]*htmlx.Node, dotted bool) {
	doc.Walk(func(n *htmlx.Node) bool {
		if n.Type != htmlx.ElementNode && n.Type != htmlx.DocumentNode {
			return true
		}
		kids := n.ChildElements()
		record := slots != nil && n.Type == htmlx.ElementNode
		if len(kids) < 2 || len(kids) < minItems && !record {
			if record && len(kids) == 1 {
				dotted = dotted || strings.IndexByte(kids[0].Data, '.') >= 0
				noteSlot(slots, internSig(kids[0].Data, kids[0].Class()), 1)
			}
			return true
		}
		bySig := make(map[string][]*htmlx.Node)
		var order []string
		for _, k := range kids {
			if record {
				dotted = dotted || strings.IndexByte(k.Data, '.') >= 0
			}
			sig := internSig(k.Data, k.Class())
			if _, seen := bySig[sig]; !seen {
				order = append(order, sig)
			}
			bySig[sig] = append(bySig[sig], k)
		}
		for _, sig := range order {
			g := bySig[sig]
			if record {
				noteSlot(slots, sig, len(g))
			}
			if len(g) >= minItems && !isHeaderGroup(g) {
				groups = append(groups, g)
			}
		}
		return true
	})
	return groups, dotted
}

// noteSlot records that sig heads a sibling group of size members: slots
// keeps each signature's smallest.
func noteSlot(slots map[string]int, sig string, size int) {
	if old, ok := slots[sig]; !ok || size < old {
		slots[sig] = size
	}
}

// isHeaderGroup filters groups made of table header rows.
func isHeaderGroup(g []*htmlx.Node) bool {
	if g[0].Data != "tr" {
		return false
	}
	ths := 0
	for _, c := range g[0].ChildElements() {
		if c.Data == "th" {
			ths++
		}
	}
	return ths > 0 && ths == len(g[0].ChildElements())
}

// span is one text fragment inside a list item. norm, filled by analyzeItem,
// is the precomputed textproc.Normalize(text) that gazetteer recognizers
// match against (shared across every domain run on the page).
type span struct {
	text   string
	anchor bool
	norm   string
}

// itemSpans collects the visible text fragments of an item in document
// order: leaf element texts, with anchors flagged.
func itemSpans(item *htmlx.Node) []span {
	var spans []span
	item.Walk(func(n *htmlx.Node) bool {
		if n.Type != htmlx.ElementNode {
			return true
		}
		if n.Data == "a" {
			if t := n.Text(); t != "" {
				spans = append(spans, span{text: t, anchor: true})
			}
			return false
		}
		if len(n.ChildElements()) == 0 {
			if t := n.Text(); t != "" {
				spans = append(spans, span{text: t})
			}
			return false
		}
		return true
	})
	if len(spans) == 0 {
		if t := item.Text(); t != "" {
			spans = append(spans, span{text: t})
		}
	}
	return spans
}

// extractGroup scores one repeated group against the domain and, if it
// passes, emits one candidate per item.
func (e *ListExtractor) extractGroup(pa *PageAnalysis, group []*htmlx.Node) []*Candidate {
	d := e.Domain
	minFrac := d.MinEvidenceFrac
	if minFrac == 0 {
		minFrac = 0.5
	}
	type parsedItem struct {
		cand     *Candidate
		evidence bool
	}
	items := make([]parsedItem, 0, len(group))
	withEvidence := 0
	for _, item := range group {
		cand, hasEvidence, ok := e.parseItem(pa, item)
		if !ok {
			continue
		}
		items = append(items, parsedItem{cand, hasEvidence})
		if hasEvidence {
			withEvidence++
		}
	}
	if len(items) == 0 {
		return nil
	}
	listScore := float64(withEvidence) / float64(len(items))
	if listScore < minFrac {
		return nil // not a list of this concept (e.g. a nav bar)
	}
	var out []*Candidate
	for _, it := range items {
		if !it.evidence {
			continue // item inside an accepted list but without evidence
		}
		out = append(out, scaleConfidence(it.cand, listScore))
	}
	return out
}

// parseItem extracts one item's attributes. ok is false if the item violates
// a multiplicity constraint (it is probably not a single record); cand is nil
// unless hasEvidence. Every recognizer scan goes through the item's memo on
// the page analysis, so a text is scanned once however many checks and
// domains ask.
func (e *ListExtractor) parseItem(pa *PageAnalysis, item *htmlx.Node) (cand *Candidate, hasEvidence, ok bool) {
	d := &e.Domain
	pa.scanMu.Lock()
	defer pa.scanMu.Unlock()
	it := pa.itemOf(item)
	spans, scans := it.spans, &it.scans

	// Statistical constraints: more distinct values than allowed means the
	// "item" actually spans several records.
	for _, c := range d.Constraints {
		if rec := recognizerFor(d, c.Key); rec != nil && scans.exceeds(rec, it.full, it.norm, c.MaxValues) {
			return nil, false, false
		}
	}
	if !d.mayHaveEvidence(func(rec *Recognizer) (string, bool) {
		v, _, ok := it.match(rec)
		return v, ok
	}) {
		return nil, false, true
	}

	cand = NewCandidate(d.Concept, pa.Page.URL, e.Name())
	matched := make(map[string]bool) // span texts consumed by recognizers
	for ri := range d.Recognizers {
		// A span counts as consumed only when the match covers most of it —
		// a cuisine word inside "Blue Palm American Restaurant" must not eat
		// the name span.
		rec := &d.Recognizers[ri]
		v, i, okm := it.match(rec)
		switch {
		case !okm:
		case i < 0:
			cand.Add(rec.Key, v, attrConf(rec.Weight)*0.9)
		default:
			cand.Add(rec.Key, v, attrConf(rec.Weight))
			if len(v)*2 >= len(strings.TrimSpace(spans[i].text)) {
				matched[spans[i].text] = true
			}
		}
	}

	// Name assignment.
	switch d.NameFrom {
	case "anchor":
		for i := range spans {
			sp := &spans[i]
			if sp.anchor && !matched[sp.text] {
				cand.Add(d.NameKey, sp.text, 0.9)
				break
			}
		}
	case "first-span":
		for i := range spans {
			sp := &spans[i]
			if !matched[sp.text] && !recognizedByAny(d, scans, 1+i, sp) {
				cand.Add(d.NameKey, sp.text, 0.85)
				break
			}
		}
	}

	for _, k := range d.Evidence {
		if len(cand.Attrs[k]) > 0 {
			hasEvidence = true
			break
		}
	}
	// A record needs a name (when the domain defines one) to be usable.
	if !hasEvidence || d.NameKey != "" && cand.Get(d.NameKey) == "" {
		return nil, false, true
	}
	return cand, true, true
}

// match is rec's value in the item: its first match in the first span that
// has one (more precise provenance), else in the full text (span -1).
func (it *itemAnalysis) match(rec *Recognizer) (v string, span int, ok bool) {
	for i := range it.spans {
		sp := &it.spans[i]
		if v, ok := it.scans.first(rec, 1+i, sp.text, sp.norm); ok {
			return v, i, true
		}
	}
	v, ok = it.scans.first(rec, 0, it.full, it.norm)
	return v, -1, ok
}

// mayHaveEvidence reports whether a text can pass the evidence test, value
// giving each recognizer's value in it: the name is itself evidence, or an
// evidence recognizer finds a value Candidate.Add keeps. When it says no, a
// parse would build a candidate only to drop it, so callers ask it first.
func (d *Domain) mayHaveEvidence(value func(*Recognizer) (string, bool)) bool {
	if slices.Contains(d.Evidence, d.NameKey) {
		return true
	}
	for i := range d.Recognizers {
		rec := &d.Recognizers[i]
		if !slices.Contains(d.Evidence, rec.Key) {
			continue
		}
		if v, ok := value(rec); ok && strings.TrimSpace(v) != "" {
			return true
		}
	}
	return false
}

func attrConf(weight float64) float64 {
	c := 0.55 + 0.45*weight
	if c > 1 {
		return 1
	}
	return c
}

func scaleConfidence(c *Candidate, listScore float64) *Candidate {
	factor := 0.5 + 0.5*listScore
	return c.Chain("listscore", factor)
}

// recognizerFor returns the domain's recognizer for key, nil if it has none.
func recognizerFor(d *Domain, key string) *Recognizer {
	for i := range d.Recognizers {
		if d.Recognizers[i].Key == key {
			return &d.Recognizers[i]
		}
	}
	return nil
}

// recognizedByAny reports whether some recognizer of the domain matches most
// of the span at slot — "Pizza My Heart 95014" should still yield a name.
func recognizedByAny(d *Domain, scans *scanMemo, slot int, sp *span) bool {
	for i := range d.Recognizers {
		if v, ok := scans.first(&d.Recognizers[i], slot, sp.text, sp.norm); ok {
			if len(v)*2 >= len(strings.TrimSpace(sp.text)) {
				return true
			}
		}
	}
	return false
}

// DetailExtractor extracts a single record from a detail page (an aggregator
// biz page, an official homepage, a portal leaf): the page-level analogue of
// list extraction, using the same domain knowledge. The multiplicity
// constraints are what tell a detail page apart from a listing page —
// a page with five zip codes is not about one restaurant. Like
// ListExtractor, it is stateless and safe to run concurrently.
type DetailExtractor struct {
	Domain Domain
}

// Name implements Operator.
func (e *DetailExtractor) Name() string { return internOpName("detail:", e.Domain.Concept) }

// Extract implements Operator.
func (e *DetailExtractor) Extract(p *webgraph.Page) []*Candidate {
	return e.ExtractAnalyzed(Analyze(p))
}

// ExtractAnalyzed implements Operator over a shared page analysis. Like the
// item parser it reads recognizers through the analysis's scan memo: the
// body is the longest text on the page, and every domain's detail pass and
// every constraint on it would otherwise scan it again. Like the item
// parser, too, it asks for the domain's evidence before building anything.
func (e *DetailExtractor) ExtractAnalyzed(pa *PageAnalysis) []*Candidate {
	d := &e.Domain
	full := pa.BodyText()
	// norm is the body's normalization for the recognizers that match over
	// one; it is not computed for a page only regular expressions read.
	norm := func(rec *Recognizer) string {
		if rec.MatchNorm == nil {
			return ""
		}
		return pa.BodyNorm()
	}
	pa.scanMu.Lock()
	defer pa.scanMu.Unlock()
	scans := &pa.bodyScans

	for _, c := range d.Constraints {
		if rec := recognizerFor(d, c.Key); rec != nil && scans.exceeds(rec, full, norm(rec), c.MaxValues) {
			return nil
		}
	}
	if !d.mayHaveEvidence(func(rec *Recognizer) (string, bool) { return scans.first(rec, 0, full, norm(rec)) }) {
		return nil
	}

	cand := NewCandidate(d.Concept, pa.Page.URL, e.Name())
	for i := range d.Recognizers {
		rec := &d.Recognizers[i]
		if v, ok := scans.first(rec, 0, full, norm(rec)); ok {
			cand.Add(rec.Key, v, attrConf(rec.Weight))
		}
	}
	// Name from the page's main heading, else its title.
	if d.NameKey != "" {
		if h1, ok := pa.BodyH1(); ok {
			cand.Add(d.NameKey, cleanHeading(h1), 0.9)
		} else if t, ok := pa.Title(); ok {
			cand.Add(d.NameKey, cleanHeading(t), 0.7)
		}
	}
	hasEvidence := false
	for _, k := range d.Evidence {
		if len(cand.Attrs[k]) > 0 {
			hasEvidence = true
			break
		}
	}
	if !hasEvidence || (d.NameKey != "" && cand.Get(d.NameKey) == "") {
		return nil
	}
	return []*Candidate{cand}
}

// mainText returns the page text excluding nav and footer boilerplate.
func mainText(body *htmlx.Node) string {
	var b strings.Builder
	for _, c := range body.Children {
		if c.Type == htmlx.ElementNode && (c.HasClass("topnav") || c.HasClass("footer")) {
			continue
		}
		b.WriteString(c.Text())
		b.WriteByte(' ')
	}
	return htmlx.CollapseSpace(b.String())
}

// cleanHeading strips site-name decorations like " - welp.example" and
// boilerplate prefixes from headings used as names.
func cleanHeading(h string) string {
	if i := strings.Index(h, " - "); i > 0 {
		h = h[:i]
	}
	for _, prefix := range []string{"Find ", "Welcome to "} {
		h = strings.TrimPrefix(h, prefix)
	}
	for _, suffix := range []string{" Menu", " Review"} {
		h = strings.TrimSuffix(h, suffix)
	}
	return strings.TrimSpace(h)
}
