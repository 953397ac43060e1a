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
//
// Extract is the steps of a SiteRun in order on the calling goroutine.
func (m *SiteMemo) Extract(prop *SitePropagator, site Site, detail func(*PageAnalysis) []*Candidate) (cands []*Candidate, reinduced bool) {
	r := m.Begin(prop, site, detail)
	for i := range site.URLs {
		r.ListPage(i)
	}
	r.Induce()
	for i := range site.URLs {
		r.FinishPage(i)
	}
	return r.Commit()
}

// SiteRun is one extraction of a site through its memo, cut at the page: the
// two per-page passes as steps a scheduler can fan out over a worker pool,
// and the two serial points between and after them. The order is ListPage
// for every page, Induce, FinishPage for every page, Commit. ListPage and
// FinishPage read shared state and write only their own page's slot, so
// calls for different pages may run concurrently; a page's own calls, and
// every call of Site.Analysis for it, come from the one goroutine running
// its step. Induce and Commit need every call of the pass before them to
// have returned.
type SiteRun struct {
	m      *SiteMemo
	prop   *SitePropagator
	site   Site
	detail func(*PageAnalysis) []*Candidate

	// Per page: its candidates as this run returns them (what the passes
	// just produced, or the memo's entry unpacked), its memo entry (nil for
	// a page that cannot be read), and whether the list pass ran on it.
	found   []pageCands
	entries []*pageMemo
	fresh   []bool

	trusted map[string]bool // set by Induce: the union of the pages' signatures
	tails   map[string]bool // set by Induce: trustedTails(trusted)
	whole   bool            // set by Induce: the memo was filled under another trusted set
}

type pageCands struct{ list, propagated, detail []*Candidate }

// Begin opens an extraction of site for prop's domain. A nil memo keeps
// nothing: every page is analysed, nothing is packed, and the candidates
// Commit returns are all that is left of the run — the streamed build's
// mode, where the memory a memo costs buys no second extraction.
func (m *SiteMemo) Begin(prop *SitePropagator, site Site, detail func(*PageAnalysis) []*Candidate) *SiteRun {
	n := len(site.URLs)
	return &SiteRun{m: m, prop: prop, site: site, detail: detail,
		found: make([]pageCands, n), entries: make([]*pageMemo, n), fresh: make([]bool, n)}
}

// ListPage is the list pass over page i: run on the page's analysis when the
// memo does not hold the page under its current hash, replayed otherwise.
func (r *SiteRun) ListPage(i int) {
	var e *pageMemo
	if r.m != nil {
		e = r.m.pages[r.site.URLs[i]]
	}
	if e == nil || e.hash != r.site.Hashes[i] {
		pa := r.site.Analysis(i)
		if pa == nil {
			return
		}
		e = &pageMemo{hash: r.site.Hashes[i]}
		r.found[i].list, e.sigs = r.prop.listPage(pa)
		if r.m != nil {
			e.list = pack(r.found[i].list)
		}
		r.fresh[i] = true
	} else {
		r.found[i].list = unpack(e.list)
	}
	r.entries[i] = e
}

// Induce is the barrier between the passes: the site's trusted set is the
// union of what its pages vouch for, and if the memo's propagated and detail
// candidates were computed under another, none of them can be replayed. The
// set's "/"-suffixes are taken here, once per site and domain, for the
// propagate pass's pre-test.
func (r *SiteRun) Induce() {
	r.trusted = make(map[string]bool)
	for _, e := range r.entries {
		if e != nil {
			for _, sig := range e.sigs {
				r.trusted[sig] = true
			}
		}
	}
	r.tails = trustedTails(r.trusted)
	r.whole = r.m != nil && !maps.Equal(r.trusted, r.m.trusted)
}

// FinishPage is the propagate pass and, on a page that yielded no list or
// propagated candidate, the detail pass over page i: run when the list pass
// just ran on the page or the trusted set moved, replayed otherwise.
func (r *SiteRun) FinishPage(i int) {
	e, f := r.entries[i], &r.found[i]
	if e == nil {
		return
	}
	if !r.fresh[i] && !r.whole {
		f.propagated, f.detail = unpack(e.propagated), unpack(e.detail)
		return
	}
	pa := r.site.Analysis(i)
	if pa == nil {
		r.entries[i] = nil
		return
	}
	f.propagated, f.detail = r.prop.propagatePage(pa, r.trusted, r.tails, f.list), nil
	if r.detail != nil && len(f.list)+len(f.propagated) == 0 {
		f.detail = r.detail(pa)
	}
	if r.m != nil {
		e.propagated, e.detail = pack(f.propagated), pack(f.detail)
	}
}

// Commit installs what the run found in the memo and returns the site's
// candidates — list, then propagated, then detail, each in site-page order —
// and whether a memo that held pages had its propagate and detail passes
// re-run over the whole site.
func (r *SiteRun) Commit() (cands []*Candidate, reinduced bool) {
	n := 0
	for i, e := range r.entries {
		if e != nil {
			n += len(r.found[i].list) + len(r.found[i].propagated) + len(r.found[i].detail)
		}
	}
	if m := r.m; m != nil {
		reinduced = r.whole && len(m.pages) > 0
		m.trusted, m.cands = r.trusted, n
		m.pages = make(map[string]*pageMemo, len(r.entries))
		for i, e := range r.entries {
			if e != nil {
				m.pages[r.site.URLs[i]] = e
			}
		}
	}
	cands = make([]*Candidate, 0, n)
	for i, e := range r.entries {
		if e != nil {
			cands = append(cands, r.found[i].list...)
		}
	}
	for i, e := range r.entries {
		if e != nil {
			cands = append(cands, r.found[i].propagated...)
		}
	}
	for i, e := range r.entries {
		if e != nil {
			cands = append(cands, r.found[i].detail...)
		}
	}
	return cands, reinduced
}
