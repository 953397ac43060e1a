package search

import (
	"sort"
	"strings"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
)

// Concept search (§5.2): "users search a highly heterogeneous collection of
// records through a uniform interface", with refinement using specialized
// features (only Chinese restaurants), special query parsing (geographic
// locations), and custom query processing.

// RecordHit is one concept-search result.
type RecordHit struct {
	Record *lrec.Record
	Score  float64
}

// Filter constrains concept search to records with a given attribute value
// (the "show only Chinese restaurants" refinement).
type Filter struct {
	Key   string
	Value string
}

// ConceptSearch retrieves records matching the query, applying parsed
// geographic/category constraints plus any explicit filters, ranked by
// index score with attribute-agreement bonuses.
func (e *Engine) ConceptSearch(query string, filters []Filter, k int) []RecordHit {
	defer e.Metrics.Time("search.concept.latency")()
	e.Metrics.Counter("search.concept.queries").Inc()
	parsed := e.Parser.Parse(query)
	// Retrieval: the normalized query against the record index; for pure set
	// queries the category+city string retrieves better than decorations
	// like "best".
	retrieval := parsed.Raw
	if parsed.Kind == IntentSet {
		parts := append([]string{}, parsed.NameTokens...)
		if parsed.Category != "" {
			parts = append(parts, parsed.Category)
		}
		if parsed.City != "" {
			parts = append(parts, parsed.City)
		}
		retrieval = strings.Join(parts, " ")
	}
	hits := e.ranked(e.Woc.RecIndex, retrieval, k*6+30)
	set := parsed.Kind == IntentSet
	wantCity, wantCategory := textproc.Normalize(parsed.City), textproc.Normalize(parsed.Category)
	out := make([]RecordHit, 0, len(hits))
	for _, h := range hits {
		// Filter and score on the store's own record; only the k returned
		// are copied.
		rec, err := e.Woc.Records.View(h.ID)
		if err != nil {
			continue
		}
		if !passesFilters(rec, filters) {
			continue
		}
		cityMatch := parsed.City != "" && textproc.EqualsNormalized(rec.Get("city"), wantCity)
		categoryMatch := parsed.Category != "" && textproc.EqualsNormalized(rec.Get("cuisine"), wantCategory)
		// Hard geographic constraint for set queries: "pizza in San Jose" must
		// not return Cupertino records, however well they score textually.
		if set && parsed.City != "" && rec.Has("city") && !cityMatch {
			continue
		}
		// Category-constrained set search returns only records known to be in
		// the category (§5.2's "show only Chinese restaurants" refinement).
		if set && parsed.Category != "" && !categoryMatch {
			continue
		}
		score := h.Score
		// Attribute-agreement bonuses: matching the parsed city/category is
		// worth more than matching their tokens in passing.
		if cityMatch {
			score += 2
		}
		if categoryMatch {
			score += 2
		}
		out = append(out, RecordHit{Record: rec, Score: score})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Record.ID < out[j].Record.ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	for i := range out {
		out[i].Record = out[i].Record.Clone()
	}
	return out
}

// passesFilters reports whether rec has, for every filter, a value equal to
// the filter's after normalization.
func passesFilters(rec *lrec.Record, filters []Filter) bool {
	for _, f := range filters {
		want := textproc.Normalize(f.Value)
		match := false
		for _, v := range rec.All(f.Key) {
			if textproc.EqualsNormalized(v.Value, want) {
				match = true
				break
			}
		}
		if !match {
			return false
		}
	}
	return true
}

// SearchWithinConcept is the Table 1 "Search w/in concept" cell: retrieve
// documents, restricted to pages associated with the given record (e.g.
// searching for a dish within one restaurant's web).
func (e *Engine) SearchWithinConcept(recordID, query string, k int) []DocResult {
	member := make(map[string]bool)
	for _, u := range e.Woc.PagesOf(recordID) {
		member[u] = true
	}
	if len(member) == 0 {
		return nil
	}
	raw := e.ranked(e.Woc.DocIndex, query, 0)
	var out []DocResult
	for _, h := range raw {
		if member[h.ID] {
			out = append(out, DocResult{URL: h.ID, Score: h.Score,
				RecordIDs: e.Woc.AssocOf(h.ID)})
		}
	}
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Facet is one refinement option with its result count — the §5.2
// "refinement using specialized features (e.g., show only Chinese
// restaurants)" surfaced as navigation.
type Facet struct {
	Key   string
	Value string
	Count int
}

// Facets summarizes a concept-search result set along the given attribute
// keys, producing the counts a result page shows as refinement links.
// Facet lists are ordered by count (desc), then value.
func Facets(hits []RecordHit, keys ...string) map[string][]Facet {
	out := make(map[string][]Facet, len(keys))
	for _, key := range keys {
		counts := map[string]int{}
		for _, h := range hits {
			if v := textproc.Normalize(h.Record.Get(key)); v != "" {
				counts[v]++
			}
		}
		fs := make([]Facet, 0, len(counts))
		for v, n := range counts {
			fs = append(fs, Facet{Key: key, Value: v, Count: n})
		}
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].Count != fs[j].Count {
				return fs[i].Count > fs[j].Count
			}
			return fs[i].Value < fs[j].Value
		})
		out[key] = fs
	}
	return out
}

// Refine re-runs a concept search narrowed by a facet selection.
func (e *Engine) Refine(query string, facet Facet, k int) []RecordHit {
	return e.ConceptSearch(query, []Filter{{Key: facet.Key, Value: facet.Value}}, k)
}
