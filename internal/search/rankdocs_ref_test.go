package search

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"conceptweb/internal/lrec"
)

// rankDocsWide is rankDocs as it was before it narrowed its fetch, retained
// verbatim as the oracle: it always ranks the index's best 4k+20 and sorts
// them, boosted or not. No non-test code calls it.
func rankDocsWide(e *Engine, q Parsed, triggered *lrec.Record, k int) []DocResult {
	raw := e.Woc.DocIndex.Search(q.Raw, k*4+20)
	var homepage string
	if triggered != nil {
		homepage = strings.TrimSuffix(triggered.Get("homepage"), "/")
	}
	out := make([]DocResult, 0, len(raw))
	for _, hit := range raw {
		dr := DocResult{URL: hit.ID, Score: hit.Score, RecordIDs: e.Woc.AssocOf(hit.ID)}
		if triggered != nil {
			for _, id := range dr.RecordIDs {
				if id == triggered.ID {
					dr.Score += e.AssocBoost
					break
				}
			}
			if homepage != "" && (hit.ID == homepage || hit.ID == homepage+"/") {
				dr.Score += e.HomepageBoost
				dr.IsHomepage = true
			}
		}
		out = append(out, dr)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].URL < out[j].URL
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TestRankDocsMatchesWideFetch: asking the index for k when no box
// triggered answers exactly what ranking 4k+20 and cutting did, for every
// query of both worlds' vocabularies at k in {0, 1, 10, 20} — with the
// query's own trigger decision and with none.
func TestRankDocsMatchesWideFetch(t *testing.T) {
	_, small := engine(t)
	for name, e := range map[string]*Engine{"default": small, "heavytail": heavyTailEngine(t)} {
		boxes, results := 0, 0
		for _, q := range recordQueries(e) {
			parsed := e.Parser.Parse(q)
			rec, _ := e.Trigger(parsed)
			if rec != nil {
				boxes++
			}
			for _, trig := range []*lrec.Record{rec, nil} {
				for _, k := range []int{0, 1, 10, 20} {
					got, want := e.rankDocs(parsed, trig, k), rankDocsWide(e, parsed, trig, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: rankDocs(%q, box %v, %d) = %v, wide fetch %v", name, q, trig != nil, k, got, want)
					}
					results += len(got)
				}
			}
		}
		if boxes == 0 || results == 0 {
			t.Fatalf("%s: %d boxes, %d results: the comparison exercised nothing", name, boxes, results)
		}
	}
}
