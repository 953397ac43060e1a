package extract

import (
	"maps"

	"conceptweb/internal/lrec"
)

// Site is one site's current pages in site-page order, as SiteMemo.Extract
// sees them: URL and content hash for every page, and the page's analysis on
// demand. Analysis is called only for pages the memo cannot answer from what
// it holds; it returns nil for a page that cannot be read, which is then
// left out of the extraction.
type Site struct {
	URLs     []string
	Hashes   []uint64
	Analysis func(i int) *PageAnalysis
}

// SiteMemo is what one domain's extraction over one site leaves behind so
// that the next extraction of the site costs what changed (§7.3: "without
// re-incurring the full cost of extraction when the page is not modified in
// a material way"): the site's trusted signature set and, per page, the
// content hash its passes ran over, the signatures the page vouched for and
// the three candidate lists. It holds candidates, packed, and strings only —
// no DOM node, no PageAnalysis. The zero value is an empty memo: its first
// Extract analyses every page.
//
// The invariants Extract restores before it returns: every held page's list
// candidates and signatures are the list pass's output over the bytes that
// hash to its hash, and every held page's propagated and detail candidates
// are what the propagate and detail passes give over those bytes under
// exactly the trusted set held — the union of the signatures of the pages
// that call saw. A SiteMemo is not safe for concurrent use.
type SiteMemo struct {
	trusted map[string]bool
	pages   map[string]*pageMemo
	cands   int
}

type pageMemo struct {
	hash       uint64
	sigs       []string
	list       []packed
	propagated []packed
	detail     []packed
}

// packed is a candidate as the memo holds it, about a third of the bytes:
// an extractor's candidate carries one provenance — its own source URL and
// operator chain, sequence and support unset — on every value (Candidate.Add
// and Chain see to that), so the values reduce to (key, value, confidence)
// and the per-candidate map and per-key slices are rebuilt on replay.
type packed struct {
	concept, url string
	ops          []string
	conf         float64
	vals         []packedValue // by sorted key, a key's values in order
}

type packedValue struct {
	key, value string
	conf       float64
}

func pack(cands []*Candidate) []packed {
	if len(cands) == 0 {
		return nil
	}
	out := make([]packed, len(cands))
	for i, c := range cands {
		n := 0
		for _, vs := range c.Attrs {
			n += len(vs)
		}
		vals := make([]packedValue, 0, n)
		for _, k := range c.Keys() {
			for _, v := range c.Attrs[k] {
				vals = append(vals, packedValue{k, v.Value, v.Confidence})
			}
		}
		out[i] = packed{c.Concept, c.SourceURL, c.Operators, c.Confidence, vals}
	}
	return out
}

func unpack(ps []packed) []*Candidate {
	if len(ps) == 0 {
		return nil
	}
	out := make([]*Candidate, len(ps))
	for i, p := range ps {
		c := &Candidate{Concept: p.concept, SourceURL: p.url, Operators: p.ops, Confidence: p.conf,
			Attrs: make(map[string][]lrec.AttrValue, len(p.vals))}
		for _, v := range p.vals {
			c.Attrs[v.key] = append(c.Attrs[v.key], lrec.AttrValue{Value: v.value, Confidence: v.conf,
				Prov: lrec.Provenance{SourceURL: p.url, Operators: p.ops}})
		}
		out[i] = c
	}
	return out
}

// Candidates returns how many candidates the memo holds — the unit of the
// caller's memory budget.
func (m *SiteMemo) Candidates() int { return m.cands }

// Drop forgets the page at url, for callers that know it left the site.
// Extract would notice on its own; dropping frees the candidates now.
func (m *SiteMemo) Drop(url string) {
	if e := m.pages[url]; e != nil {
		m.cands -= len(e.list) + len(e.propagated) + len(e.detail)
		delete(m.pages, url)
	}
}

// Extract returns the site's candidates for prop's domain: every page's
// list candidates, then every page's propagated candidates, then every
// page's detail candidates, each in site-page order — what running the three
// passes over the whole site gives. detail is the detail pass, run on a page
// iff it yielded no list or propagated candidate (a page that lists records
// is not a detail page about one); nil means the domain has none.
//
// Only pages whose hash the memo does not hold are analysed: the list pass
// runs on them, and the union of every page's signatures is compared with
// the trusted set the memo's propagated and detail candidates were computed
// under. While it is equal, the propagate and detail passes run on the new
// pages alone and everything else is replayed. When it is not — a layout
// change made a signature appear on the site or vanish from it — both passes
// re-run over the whole site; reinduced reports that, for a memo that held
// pages before the call.
func (m *SiteMemo) Extract(prop *SitePropagator, site Site, detail func(*PageAnalysis) []*Candidate) (cands []*Candidate, reinduced bool) {
	// found[i] is page i's candidates as this call returns them: what the
	// passes just produced, or the memo's entry unpacked.
	type pageCands struct{ list, propagated, detail []*Candidate }
	found := make([]pageCands, len(site.URLs))
	entries := make([]*pageMemo, len(site.URLs))
	fresh := make([]bool, len(site.URLs))
	trusted := make(map[string]bool, len(m.trusted))
	for i, u := range site.URLs {
		e := m.pages[u]
		if e == nil || e.hash != site.Hashes[i] {
			pa := site.Analysis(i)
			if pa == nil {
				continue
			}
			e = &pageMemo{hash: site.Hashes[i]}
			found[i].list, e.sigs = prop.listPage(pa)
			e.list = pack(found[i].list)
			fresh[i] = true
		} else {
			found[i].list = unpack(e.list)
		}
		entries[i] = e
		for _, sig := range e.sigs {
			trusted[sig] = true
		}
	}

	whole := !maps.Equal(trusted, m.trusted)
	reinduced = whole && len(m.pages) > 0
	for i, e := range entries {
		if e == nil {
			continue
		}
		if !fresh[i] && !whole {
			found[i].propagated, found[i].detail = unpack(e.propagated), unpack(e.detail)
			continue
		}
		pa := site.Analysis(i)
		if pa == nil {
			entries[i] = nil
			continue
		}
		f := &found[i]
		f.propagated, f.detail = prop.propagatePage(pa, trusted, f.list), nil
		if detail != nil && len(f.list)+len(f.propagated) == 0 {
			f.detail = detail(pa)
		}
		e.propagated, e.detail = pack(f.propagated), pack(f.detail)
	}

	m.trusted = trusted
	m.pages = make(map[string]*pageMemo, len(entries))
	m.cands = 0
	for i, e := range entries {
		if e != nil {
			m.pages[site.URLs[i]] = e
			m.cands += len(e.list) + len(e.propagated) + len(e.detail)
		}
	}
	cands = make([]*Candidate, 0, m.cands)
	for i, e := range entries {
		if e != nil {
			cands = append(cands, found[i].list...)
		}
	}
	for i, e := range entries {
		if e != nil {
			cands = append(cands, found[i].propagated...)
		}
	}
	for i, e := range entries {
		if e != nil {
			cands = append(cands, found[i].detail...)
		}
	}
	return cands, reinduced
}
