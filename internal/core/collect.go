package core

import (
	"sort"

	"conceptweb/internal/extract"
	"conceptweb/internal/lrec"
)

// conceptGroups folds the extraction stage's candidate stream into
// per-concept, pre-merged record groups incrementally, as windows of hosts
// finish extracting — the streamed replacement for collecting every candidate into
// one corpus-sized slice and grouping it afterwards. Candidates that
// pre-merge into an existing record (same synthesized ID) die immediately;
// only one record per distinct ID stays resident.
//
// Provenance seq stamping is deferred: each candidate's values carry its
// 0-based arrival ordinal within its concept until finish reserves the real
// seq range and rewrites them. The rewrite reproduces the eager scheme
// (one store.NextSeq per candidate, concepts processed in sorted order)
// exactly, because Record.Add keeps the earlier provenance on value dedupe
// and ordinal order is arrival order.
type conceptGroups struct {
	// filter, when non-nil, decides whether a candidate folds in (the
	// Refresh path drops candidates that re-assert untouched records).
	// Dropped candidates consume no seq ordinal.
	filter func(c *extract.Candidate, id string) bool
	groups map[string]*conceptGroup
	total  int // candidates offered, before filtering (build stats)
}

type conceptGroup struct {
	n     int // candidates folded: the next ordinal
	pre   map[string]*lrec.Record
	order []string
}

func newConceptGroups(filter func(c *extract.Candidate, id string) bool) *conceptGroups {
	return &conceptGroups{filter: filter, groups: make(map[string]*conceptGroup)}
}

// add folds one candidate. Not safe for concurrent use: the extract stage
// folds serially, after each window's page tasks have returned.
func (cg *conceptGroups) add(c *extract.Candidate) {
	cg.total++
	id := c.SynthesizeID()
	if cg.filter != nil && !cg.filter(c, id) {
		return
	}
	g := cg.groups[c.Concept]
	if g == nil {
		g = &conceptGroup{pre: make(map[string]*lrec.Record)}
		cg.groups[c.Concept] = g
	}
	rec := c.ToRecord(id, uint64(g.n))
	g.n++
	if exist, ok := g.pre[id]; ok {
		exist.Merge(rec) //nolint:errcheck // same concept
	} else {
		g.pre[id] = rec
		g.order = append(g.order, id)
	}
}

// addAll folds a slice of candidates in order.
func (cg *conceptGroups) addAll(cands []*extract.Candidate) {
	for _, c := range cands {
		cg.add(c)
	}
}

// concepts returns the folded concepts in sorted order — the resolve loop's
// iteration order.
func (cg *conceptGroups) concepts() []string {
	concepts := make([]string, 0, len(cg.groups))
	for c := range cg.groups {
		concepts = append(concepts, c)
	}
	sort.Strings(concepts)
	return concepts
}

// take hands over one concept's pre-merged records in sorted-ID order,
// first reserving the concept's seq range from the store and rewriting
// every value's provisional ordinal into its final seq. The reservation
// happens per concept, from the resolve loop, because the store's logical
// clock also assigns record Versions inside Put/PutBatch: the eager scheme
// interleaved n_c provenance draws with each concept's batch of version
// draws, and candidate ordinal o of this concept drew base + o + 1 where
// base is the clock value as the concept's group was reached. A concept's
// group may be taken once.
func (cg *conceptGroups) take(concept string, store *lrec.Store) []*lrec.Record {
	g := cg.groups[concept]
	if g == nil {
		return nil
	}
	n := uint64(g.n)
	base := store.AdvanceSeq(n) - n
	sort.Strings(g.order)
	recs := make([]*lrec.Record, 0, len(g.order))
	for _, id := range g.order {
		r := g.pre[id]
		for _, vals := range r.Attrs {
			for i := range vals {
				vals[i].Prov.Seq += base + 1
			}
		}
		recs = append(recs, r)
	}
	delete(cg.groups, concept)
	return recs
}
