package match

import (
	"fmt"
	"math/rand"
	"testing"

	"conceptweb/internal/lrec"
)

// Microbenchmarks for the two formerly super-linear hot paths of the build:
// §5.4 text matching (link stage) and collective resolution (resolve stage).
// Each has a *Reference variant running the retained naive implementation,
// so `make microbench` archives the speedup alongside the absolute numbers.

func benchTextCorpusAndQueries() (*TextMatcher, [][]string) {
	rng := rand.New(rand.NewSource(1))
	vocab := propVocab(99)
	tm := NewTextMatcher(randomTextCorpus(rng, vocab, 2000))
	queries := make([][]string, 64)
	for i := range queries {
		queries[i] = randomQuery(rng, vocab, 80)
	}
	return tm, queries
}

func BenchmarkMatchTokens(b *testing.B) {
	tm, queries := benchTextCorpusAndQueries()
	tm.MatchTokens(queries[0], 1) // freeze outside the timing loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.MatchTokens(queries[i%len(queries)], 1)
	}
}

func BenchmarkMatchTokensReference(b *testing.B) {
	tm, queries := benchTextCorpusAndQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.matchTokensReference(queries[i%len(queries)], 1)
	}
}

// The resolve benchmarks share a corpus concentrated into a handful of
// zips, so the dominant blocks are oversized: the blocked resolver takes
// the sorted-neighborhood split path while the reference pays all-pairs.
func BenchmarkResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	recs := randomRestaurantCorpus(rng, 160)
	m := NewMatcher(RestaurantComparators())
	opts := DefaultCollectiveOptions()
	opts.MaxBlock = 16
	opts.Window = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Resolve(recs, m, opts)
	}
}

func BenchmarkResolveReference(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	recs := randomRestaurantCorpus(rng, 160)
	m := NewMatcher(RestaurantComparators())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolveReference(recs, m, DefaultCollectiveOptions())
	}
}

// The upsert-scan benchmarks replay what one maintenance pass asks of the
// matcher when an aggregator's lineage is retired: 200 rebuilt records, each
// looking for its merge target among 1000 stored ones. The table variant
// includes building the 1000 profiles, as every pass does.
func benchUpsertCorpus() (stored, incoming []*lrec.Record) {
	rng := rand.New(rand.NewSource(3))
	stored = randomRestaurantCorpus(rng, 500)[:1000]
	incoming = randomRestaurantCorpus(rng, 100)[:200]
	for i, r := range incoming {
		r.ID = fmt.Sprintf("in%04d", i)
	}
	return stored, incoming
}

func BenchmarkUpsertScan(b *testing.B) {
	stored, incoming := benchUpsertCorpus()
	m := NewMatcher(RestaurantComparators())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := m.NewTable()
		for _, r := range stored {
			t.Put(r)
		}
		for _, r := range incoming {
			t.Best(r)
		}
	}
}

func BenchmarkUpsertScanReference(b *testing.B) {
	stored, incoming := benchUpsertCorpus()
	m := NewMatcher(RestaurantComparators())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range incoming {
			bestReference(m, stored, r)
		}
	}
}

var benchScore float64

// BenchmarkScoreProfiles is one exact pair score on prepared profiles;
// the Reference variant is the same pairs scored on raw strings.
func BenchmarkScoreProfiles(b *testing.B) {
	stored, _ := benchUpsertCorpus()
	s := NewMatcher(RestaurantComparators()).scorer()
	profs := make([]*profile, len(stored))
	for i, r := range stored {
		profs[i] = s.profile(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScore = s.score(profs[i%len(profs)], profs[(i*7+1)%len(profs)])
	}
}

func BenchmarkScoreProfilesReference(b *testing.B) {
	stored, _ := benchUpsertCorpus()
	m := NewMatcher(RestaurantComparators())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScore = scoreReference(m, stored[i%len(stored)], stored[(i*7+1)%len(stored)])
	}
}
