package session

import (
	"testing"

	"conceptweb/internal/lrec"
)

var benchRecs []Recommendation

// BenchmarkAlternatives recommends ten substitutes for each restaurant of a
// 2k-page heavy-tail world in turn; a city or cuisine there holds hundreds of
// candidates.
func BenchmarkAlternatives(b *testing.B) {
	woc, _ := heavyTailWoc(b)
	rc := &Recommender{Woc: woc}
	var ids []string
	woc.Records.Scan(func(r *lrec.Record) bool {
		if r.Concept == "restaurant" {
			ids = append(ids, r.ID)
		}
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := rc.Alternatives(ids[i%len(ids)], 10)
		if err != nil {
			b.Fatal(err)
		}
		benchRecs = recs
	}
}
