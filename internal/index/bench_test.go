package index

import (
	"fmt"
	"testing"

	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// heavyTailFixture is the document index of a 2k-page heavy-tail world — the
// build pipeline's title (boost 2.5) + body documents — plus the three §5.1
// query forms made from the world's own restaurants. Aggregator hosts carry
// about half the pages, so a "cuisine city" or "name city" query touches
// well over a thousand documents to rank sixty.
func heavyTailFixture(tb testing.TB, shards int) (*Sharded, map[string][]string) {
	tb.Helper()
	w := webgen.NewStreamWorld(webgen.HeavyTailConfig(2000))
	s := NewSharded(shards)
	queries := map[string][]string{}
	seen := map[string]bool{}
	err := w.EachPage(func(p *webgen.Page) error {
		page := webgraph.NewPage(p.URL, p.HTML)
		title := ""
		if t := page.Doc.FindFirst("title"); t != nil {
			title = t.Text()
		}
		s.Add(Document{ID: p.URL, Fields: []Field{
			{Name: "title", Text: title, Boost: 2.5},
			{Name: "body", Text: page.Doc.Text()},
		}})
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
	return s, queries
}

var benchResults []Result

func benchSearch(b *testing.B, search func(s *Sharded, query string, k int) []Result) {
	for _, shards := range []int{1, 4} {
		s, queries := heavyTailFixture(b, shards)
		for _, form := range []string{"instance", "set", "attribute"} {
			qs := queries[form]
			b.Run(fmt.Sprintf("shards=%d/%s", shards, form), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchResults = search(s, qs[i%len(qs)], 60)
				}
			})
		}
	}
}

// BenchmarkIndexSearch is one ranked query at k = 60, the engine's
// k*4+20 for a ten-result page.
func BenchmarkIndexSearch(b *testing.B) {
	benchSearch(b, (*Sharded).Search)
}

// BenchmarkIndexSearchReference is the same query through the retained
// map-and-sort kernel.
func BenchmarkIndexSearchReference(b *testing.B) {
	benchSearch(b, (*Sharded).refSearch)
}
