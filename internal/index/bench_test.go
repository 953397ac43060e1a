package index

import (
	"fmt"
	"testing"
	"time"

	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// heavyTailFixture is the document index of a heavy-tail world of about the
// given number of pages — the build pipeline's title (boost 2.5) + body
// documents, also returned — plus the three §5.1 query forms
// made from the world's own restaurants. Aggregator hosts carry about half
// the pages, so at 2k pages a "cuisine city" or "name city" query touches
// well over a thousand documents to rank sixty.
func heavyTailFixture(tb testing.TB, pages int) (*Index, []Document, map[string][]string) {
	tb.Helper()
	w := webgen.NewStreamWorld(webgen.HeavyTailConfig(pages))
	s := New()
	var docs []Document
	queries := map[string][]string{}
	seen := map[string]bool{}
	err := w.EachPage(func(p *webgen.Page) error {
		page := webgraph.NewPage(p.URL, p.HTML)
		title := ""
		if t := page.Doc.FindFirst("title"); t != nil {
			title = t.Text()
		}
		d := Document{ID: p.URL, Fields: []Field{
			{Name: "title", Text: title, Boost: 2.5},
			{Name: "body", Text: page.Doc.Text()},
		}}
		s.Add(d)
		docs = append(docs, d)
		name, city, cuisine := p.Truth.Attrs["name"], p.Truth.Attrs["city"], p.Truth.Attrs["cuisine"]
		if p.Truth.Kind != "biz" || name == "" || city == "" || seen[name] {
			return nil
		}
		seen[name] = true
		queries["instance"] = append(queries["instance"], name+" "+city)
		queries["set"] = append(queries["set"], cuisine+" "+city)
		queries["attribute"] = append(queries["attribute"], name+" menu")
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s, docs, queries
}

var benchResults []Result

func benchSearch(b *testing.B, search func(s *Index, query string, k int) []Result) {
	s, _, queries := heavyTailFixture(b, 2000)
	for _, form := range []string{"instance", "set", "attribute"} {
		qs := queries[form]
		b.Run(form, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchResults = search(s, qs[i%len(qs)], 60)
			}
		})
	}
}

// BenchmarkIndexSearch is one ranked query at k = 60, the engine's
// k*4+20 for a ten-result page.
func BenchmarkIndexSearch(b *testing.B) {
	benchSearch(b, (*Index).Search)
}

// BenchmarkIndexSearchReference is the same query through the retained
// map-and-sort kernel.
func BenchmarkIndexSearchReference(b *testing.B) {
	benchSearch(b, (*Index).refSearch)
}

// BenchmarkIndexReAdd replaces one already-indexed document per iteration
// (the maintenance pass's index write: a changed page, an upserted record),
// walking the corpus with a stride so that aggregator and tail pages mix.
// Tokenization is outside the loop; automatic compaction is inside it. The
// cost must not grow with the index: 20k pages should read like 2k.
func BenchmarkIndexReAdd(b *testing.B) {
	for _, pages := range []int{2000, 20000} {
		s, docs, _ := heavyTailFixture(b, pages)
		prepared := make([]PreparedDoc, len(docs))
		for i, d := range docs {
			prepared[i] = Prepare(d)
		}
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.AddPrepared(prepared[i*7919%len(prepared)])
			}
		})
	}
}

// BenchmarkIndexBuild fills an empty index with the 2k-page heavy-tail
// documents the way the build does: Prepare each document, then merge them
// all with AddPrepared. Besides the whole, it reports the merge alone
// (merge-us/doc): the part that holds the index lock.
func BenchmarkIndexBuild(b *testing.B) {
	_, docs, _ := heavyTailFixture(b, 2000)
	b.ReportAllocs()
	var merge time.Duration
	for i := 0; i < b.N; i++ {
		s := New()
		prepared := make([]PreparedDoc, len(docs))
		for j, d := range docs {
			prepared[j] = Prepare(d)
		}
		start := time.Now()
		for _, d := range prepared {
			s.AddPrepared(d)
		}
		merge += time.Since(start)
	}
	n := float64(b.N * len(docs))
	b.ReportMetric(n/b.Elapsed().Seconds(), "docs/s")
	b.ReportMetric(float64(merge.Microseconds())/n, "merge-us/doc")
}
