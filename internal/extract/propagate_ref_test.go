package extract

import (
	"conceptweb/internal/htmlx"
	"conceptweb/internal/textproc"
)

// refExtractSiteAnalyzed is the whole-site SitePropagator.ExtractSiteAnalyzed
// that the per-page passes (listPage, propagatePage) and SiteMemo replaced,
// retained verbatim as the oracle: one trusted set, one dedupe set and one
// leftovers list for the whole site, pass 1 over every page and then pass 2
// over every page. No non-test code calls it.
func (s *SitePropagator) refExtractSiteAnalyzed(pas []*PageAnalysis) []*Candidate {
	trusted := make(map[string]bool)
	var out []*Candidate
	seen := make(map[string]bool)

	add := func(c *Candidate) {
		key := c.SourceURL + "\x00" + textproc.Normalize(c.Get(s.Inner.Domain.NameKey)) +
			"\x00" + textproc.Normalize(c.Get("zip")) + textproc.Normalize(c.Get("phone"))
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, c)
	}

	// Pass 1: repetition-based extraction; learn trusted signatures.
	minItems := s.Inner.MinItems
	if minItems < 2 {
		minItems = 2
	}
	type pending struct {
		pa    *PageAnalysis
		items []*htmlx.Node
		cps   []string // class-path signatures aligned with items
	}
	var leftovers []pending
	for _, pa := range pas {
		groups, sigs := pa.GroupsWithSigs(minItems)
		for gi, group := range groups {
			cands := s.Inner.extractGroup(pa, group)
			for _, c := range cands {
				add(c)
			}
			if len(cands) > 0 {
				trusted[sigs[gi]] = true
			}
		}
		// Collect singleton items (pre-sorted by the analysis) for pass 2.
		items, cps := pa.Singles(minItems)
		leftovers = append(leftovers, pending{pa, items, cps})
	}

	if len(trusted) == 0 {
		return out
	}

	// Pass 2: apply trusted signatures to unrepeated items.
	for _, lo := range leftovers {
		for i, item := range lo.items {
			if !trusted[lo.cps[i]] {
				continue
			}
			cand, hasEvidence, ok := s.Inner.parseItem(lo.pa, item)
			if !ok || !hasEvidence {
				continue
			}
			add(cand.Chain("propagate", 0.9))
		}
	}
	return out
}

// refExtractSite is the whole-site extract task the memo replaced: the
// whole-site list extraction above, then the detail pass on every page that
// yielded no list or propagated candidate.
func refExtractSite(prop *SitePropagator, pas []*PageAnalysis, detail func(*PageAnalysis) []*Candidate) []*Candidate {
	listCands := prop.refExtractSiteAnalyzed(pas)
	listPages := make(map[string]int)
	for _, c := range listCands {
		listPages[c.SourceURL]++
	}
	all := listCands
	for _, pa := range pas {
		if listPages[pa.Page.URL] >= 1 {
			continue
		}
		all = append(all, detail(pa)...)
	}
	return all
}
