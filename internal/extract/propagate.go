package extract

import (
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgraph"
)

// SitePropagator extends domain-centric list extraction with site-level
// template propagation: a template slot (class-path signature) that produced
// accepted records anywhere on a site is trusted on every page of that site,
// including pages where it occurs only once. This recovers the records that
// pure repetition detection misses — a category page listing a single
// restaurant still uses the site's result template — and is the "leverage
// extraction efforts across sources within a site" idea of §7.2 applied at
// the smallest scale.
//
// The work is per page: the list pass reads one page and says which
// signatures it vouches for, the propagate pass reads one page and the
// site's trusted set. SiteMemo strings the passes over a site and remembers
// their output page by page.
//
// Concurrency audit (for the parallel build pipeline): the propagator holds
// only the Inner extractor, and both passes keep their mutable state local
// to the call, so one value may serve concurrent calls; callers construct
// one per (site, domain) task anyway.
type SitePropagator struct {
	Inner *ListExtractor
}

// Name identifies the operator in lineage chains.
func (s *SitePropagator) Name() string { return s.Inner.Name() + "+propagate" }

// ExtractSite runs list extraction with propagation over one site's pages:
// every page's list candidates, then every page's propagated candidates,
// deduped per page by (source URL, name, evidence values).
func (s *SitePropagator) ExtractSite(pages []*webgraph.Page) []*Candidate {
	site := Site{URLs: make([]string, len(pages)), Hashes: make([]uint64, len(pages))}
	for i, p := range pages {
		site.URLs[i], site.Hashes[i] = p.URL, p.Hash
	}
	pas := AnalyzeAll(pages)
	site.Analysis = func(i int) *PageAnalysis { return pas[i] }
	cands, _ := new(SiteMemo).Extract(s, site, nil)
	return cands
}

// dedupeKey identifies a candidate within its page: two items of one page
// with the same name and evidence values are one record.
func (s *SitePropagator) dedupeKey(c *Candidate) string {
	return c.SourceURL + "\x00" + textproc.Normalize(c.Get(s.Inner.Domain.NameKey)) +
		"\x00" + textproc.Normalize(c.Get("zip")) + textproc.Normalize(c.Get("phone"))
}

func (s *SitePropagator) minItems() int {
	if s.Inner.MinItems < 2 {
		return 2
	}
	return s.Inner.MinItems
}

// listPage is the list pass over one page: repetition-based extraction of
// every repeated group, deduped, plus the class-path signatures of the
// groups that yielded candidates — the page's contribution to the site's
// trusted set.
func (s *SitePropagator) listPage(pa *PageAnalysis) (cands []*Candidate, sigs []string) {
	seen := make(map[string]bool)
	groups, gsigs := pa.GroupsWithSigs(s.minItems())
	for gi, group := range groups {
		found := s.Inner.extractGroup(pa, group)
		for _, c := range found {
			if key := s.dedupeKey(c); !seen[key] {
				seen[key] = true
				cands = append(cands, c)
			}
		}
		if len(found) > 0 {
			sigs = append(sigs, gsigs[gi])
		}
	}
	return cands, sigs
}

// trustedTails returns every "/"-suffix of every trusted signature: the
// signature itself and what follows each '/' in it. A single's signature is
// trusted only if its own class-path step is one of them (mayHoldTrusted).
// A class name may hold a '/', so a signature's last step is not simply
// what follows its last '/'.
func trustedTails(trusted map[string]bool) map[string]bool {
	tails := make(map[string]bool, 2*len(trusted))
	for sig := range trusted {
		tails[sig] = true
		for i := 0; i < len(sig); i++ {
			if sig[i] == '/' {
				tails[sig[i+1:]] = true
			}
		}
	}
	return tails
}

// propagatePage is the propagate pass over one page: unrepeated items whose
// signature the site trusts are parsed as records, deduped among themselves
// and against the page's list candidates. tails is trustedTails(trusted):
// on a page where no node that could be a single has its step in tails, no
// single is trusted, and the singles are not collected.
func (s *SitePropagator) propagatePage(pa *PageAnalysis, trusted, tails map[string]bool, list []*Candidate) []*Candidate {
	minItems := s.minItems()
	if len(trusted) == 0 || !pa.mayHoldTrusted(tails, minItems) {
		return nil
	}
	var out []*Candidate
	var seen map[string]bool
	items, cps := pa.Singles(minItems)
	for i, item := range items {
		if !trusted[cps[i]] {
			continue
		}
		cand, hasEvidence, ok := s.Inner.parseItem(pa, item)
		if !ok || !hasEvidence {
			continue
		}
		if seen == nil {
			seen = make(map[string]bool, len(list)+1)
			for _, c := range list {
				seen[s.dedupeKey(c)] = true
			}
		}
		c := cand.Chain("propagate", 0.9)
		if key := s.dedupeKey(c); !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	return out
}
