package core

import (
	"sort"
	"strings"

	"conceptweb/internal/extract"
	"conceptweb/internal/webgraph"
)

// memoCandidateBudget caps the candidates the extraction memo holds across
// all hosts, at roughly 0.6 KiB a candidate with its share of the per-page
// bookkeeping. Over it, whole hosts are evicted, least recently extracted
// first; an evicted host re-extracts in full the next time a pass touches
// it.
const memoCandidateBudget = 1 << 17

// extractMemo is the web of concepts' extraction memo: per host, one
// extract.SiteMemo per configured domain. It lives beside the page store and
// answers for the pages whose stored hash it was filled under; the extract
// stage of Build fills it as a by-product and Refresh on first touch of a
// host. It is valid for the Config (domains, gate) of the builder that
// filled it, and is touched only from the maintenance goroutine; during the
// extract fan-out its SiteMemos are read by the page tasks and written at the
// serial fold.
type extractMemo struct {
	hosts  map[string]*hostMemo
	budget int
	tick   uint64 // extract stages run; hostMemo.used is the last that touched the host
}

type hostMemo struct {
	sites []*extract.SiteMemo // by Config.Domains index
	used  uint64
}

func newExtractMemo() *extractMemo {
	return &extractMemo{hosts: make(map[string]*hostMemo), budget: memoCandidateBudget}
}

// host returns the host's memo for an extract stage over ndomains domains,
// empty when the host is new or was evicted.
func (m *extractMemo) host(host string, ndomains int) *hostMemo {
	hm := m.hosts[host]
	if hm == nil || len(hm.sites) != ndomains {
		hm = &hostMemo{sites: make([]*extract.SiteMemo, ndomains)}
		for i := range hm.sites {
			hm.sites[i] = new(extract.SiteMemo)
		}
		m.hosts[host] = hm
	}
	hm.used = m.tick
	return hm
}

// drop forgets a page that left the page store.
func (m *extractMemo) drop(url string) {
	if m == nil {
		return
	}
	host, _, _ := strings.Cut(url, "/")
	if hm := m.hosts[host]; hm != nil {
		for _, sm := range hm.sites {
			sm.Drop(url)
		}
	}
}

func (hm *hostMemo) candidates() int {
	n := 0
	for _, sm := range hm.sites {
		n += sm.Candidates()
	}
	return n
}

// evict drops whole hosts, least recently extracted first (host name breaks
// ties, so eviction is deterministic), until the memo is within budget.
func (m *extractMemo) evict() {
	total := 0
	for _, hm := range m.hosts {
		total += hm.candidates()
	}
	if total <= m.budget {
		return
	}
	hosts := make([]string, 0, len(m.hosts))
	for h := range m.hosts {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool {
		a, b := m.hosts[hosts[i]], m.hosts[hosts[j]]
		if a.used != b.used {
			return a.used < b.used
		}
		return hosts[i] < hosts[j]
	})
	for _, h := range hosts {
		if total <= m.budget {
			return
		}
		total -= m.hosts[h].candidates()
		delete(m.hosts, h)
	}
}

// hostSite is one host's pages as the extract stage hands them to
// extract.SiteRun: URLs and stored hashes up front, each page read and
// analysed at most once, on first demand, and shared by every domain's run
// over the host. A page's analysis is asked for only from the task running
// that page's step, one task at a time, so the slots need no lock.
type hostSite struct {
	extract.Site
	pages *webgraph.Store
	tried []bool
	pas   []*extract.PageAnalysis
}

func newHostSite(pages *webgraph.Store, host string) *hostSite {
	urls := pages.HostPages(host)
	hs := &hostSite{
		pages: pages,
		tried: make([]bool, len(urls)),
		pas:   make([]*extract.PageAnalysis, len(urls)),
	}
	hs.URLs, hs.Hashes, hs.Analysis = urls, make([]uint64, len(urls)), hs.analysis
	for i, u := range urls {
		hs.Hashes[i], _ = pages.Hash(u)
	}
	return hs
}

func (hs *hostSite) analysis(i int) *extract.PageAnalysis {
	if !hs.tried[i] {
		hs.tried[i] = true
		if p, err := hs.pages.Get(hs.URLs[i]); err == nil {
			hs.pas[i] = extract.Analyze(p)
		}
	}
	return hs.pas[i]
}

// Link features: what the relink stage scores a page by.
const (
	// linkMinText is the main-text length, in bytes, below which a page is
	// never a link candidate.
	linkMinText = 40
	// reviewSnippetBytes caps the page text a review record carries.
	reviewSnippetBytes = 280
)

// linkFeatures are a page's inputs to semantic linking, all a pure function
// of its bytes: the review snippet (its main text cut to reviewSnippetBytes)
// and its main-text tokens, or short when the main text is under
// linkMinText bytes. hash is the content hash they were computed under.
type linkFeatures struct {
	hash    uint64
	short   bool
	snippet string
	tokens  []string
}

// newLinkFeatures computes a page's link features. The snippet is copied out
// of the page's main text, so that a review record holding it does not keep
// the text; with keep set the tokens are too, packed into one string, so
// that the memo does not keep it either. Without keep they alias the text.
func newLinkFeatures(p *webgraph.Page, keep bool) linkFeatures {
	pa := extract.Analyze(p)
	text := pa.MainText()
	if len(text) < linkMinText {
		return linkFeatures{hash: p.Hash, short: true}
	}
	f := linkFeatures{hash: p.Hash, snippet: strings.Clone(truncateBytes(text, reviewSnippetBytes)), tokens: pa.MainTokens()}
	if !keep {
		return f
	}
	packed := strings.Join(f.tokens, "")
	toks := make([]string, len(f.tokens))
	for i, t := range f.tokens {
		toks[i], packed = packed[:len(t)], packed[len(t):]
	}
	f.tokens = toks
	return f
}

// linkMemo is the web of concepts' link-feature memo: by URL, the link
// features of the pages the relink stage last scored, so that a maintenance
// pass whose relink goes global re-reads and re-parses only the pages that
// changed. An entry answers while the page store's hash for the URL equals
// the entry's; any other entry is recomputed from the page.
//
// It exists exactly when the extraction memo does (Build keeps both, a
// streamed build neither until its first Refresh creates both) and is
// touched only from the maintenance goroutine: read by the relink stage's
// page tasks, written after them. Pruning keeps it to the pages a relink
// could score: a global relink leaves exactly its pending set in the memo, a
// narrow relink upserts the changed pages it scored and drops the changed
// pages it did not, and a page that goes gone is dropped beside its
// extraction-memo entries. A nil linkMemo keeps nothing.
type linkMemo map[string]linkFeatures

// lookup returns url's features if the memo holds them under the page
// store's current hash for url.
func (m linkMemo) lookup(pages *webgraph.Store, url string) (linkFeatures, bool) {
	f, ok := m[url]
	if !ok {
		return linkFeatures{}, false
	}
	if h, stored := pages.Hash(url); !stored || h != f.hash {
		return linkFeatures{}, false
	}
	return f, true
}
