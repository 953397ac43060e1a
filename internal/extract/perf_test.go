package extract

import (
	"fmt"
	"strings"
	"testing"

	"conceptweb/internal/htmlx"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// benchListPage synthesizes a listing page shaped like the generated
// restaurant-guide sites: a repeated card group plus nav/footer chrome.
func benchListPage() *htmlx.Node {
	var b strings.Builder
	b.WriteString(`<html><head><title>Guide</title></head><body>` +
		`<div class="topnav"><a href="/">Home</a><a href="/about">About</a></div>` +
		`<h1>Best Restaurants</h1><div class="results">`)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, `<div class="card"><h2 class="name">Place %d</h2>`+
			`<span class="addr">%d Main St, Springfield, IL 627%02d</span>`+
			`<span class="phone">(217) 555-01%02d</span>`+
			`<span class="cuisine">Italian</span><span class="price">$%d.50</span></div>`,
			i, 100+i, i%100, i%100, 10+i%20)
	}
	b.WriteString(`</div><div class="footer">© Guide</div></body></html>`)
	return htmlx.Parse(b.String())
}

func BenchmarkRepeatedGroups(b *testing.B) {
	doc := benchListPage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g := repeatedGroups(doc, 2); len(g) == 0 {
			b.Fatal("no groups found")
		}
	}
}

// worldTexts collects every text a recognizer reads in the heavy-tail 2k-page
// world: each list item's full text and spans (group members and singleton
// slots) and each page's body.
func worldTexts(b *testing.B) []string {
	var texts []string
	err := webgen.NewStreamWorld(webgen.HeavyTailConfig(2000)).EachPage(func(p *webgen.Page) error {
		pa := Analyze(webgraph.NewPage(p.URL, p.HTML))
		nodes, _ := pa.Singles(2)
		for _, g := range pa.Groups(2) {
			nodes = append(nodes, g...)
		}
		for _, n := range nodes {
			ia := analyzeItem(n)
			texts = append(texts, ia.full)
			for _, sp := range ia.spans {
				texts = append(texts, sp.text)
			}
		}
		texts = append(texts, pa.BodyText())
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return texts
}

// BenchmarkRecognizers is the per-rule layer line: one op is one rule over
// every text of the world, by its kernel and by its retained expression.
func BenchmarkRecognizers(b *testing.B) {
	texts := worldTexts(b)
	for _, k := range kernelOracle {
		for _, impl := range []struct {
			name  string
			match func(string) (string, bool)
		}{
			{"kernel", k.rec.Match},
			{"regexp", func(s string) (string, bool) { return refMatch(k.re, k.group, s) }},
		} {
			b.Run("rule="+k.rec.Key+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				found := 0
				for i := 0; i < b.N; i++ {
					for _, s := range texts {
						if _, ok := impl.match(s); ok {
							found++
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(texts)), "ns/text")
				b.ReportMetric(float64(found)/float64(b.N), "matches")
			})
		}
	}
}

// The signature-interning table means a warmed-up repeatedGroups walk
// allocates its group bookkeeping (per-parent maps and slices) but never
// per-node signature strings. Measured ~560 allocs/run for this 40-card
// page; dropping the intern table adds one string concatenation per child
// element (~290 more here), which the ceiling is tight enough to catch.
func TestRepeatedGroupsAllocs(t *testing.T) {
	doc := benchListPage()
	repeatedGroups(doc, 2) // warm the intern table
	allocs := testing.AllocsPerRun(50, func() {
		repeatedGroups(doc, 2)
	})
	if allocs > 700 {
		t.Errorf("repeatedGroups = %.1f allocs/run, want <= 700", allocs)
	}
}

// aggregatorPage is the first category page of the heavy-tail world: an
// aggregator listing whose repeated result group the restaurant domain
// trusts, and whose singles that trust does not reach.
func aggregatorPage(b *testing.B) (*webgraph.Page, Domain) {
	w := webgen.NewStreamWorld(webgen.HeavyTailConfig(2000))
	var page *webgraph.Page
	w.EachPage(func(p *webgen.Page) error { //nolint:errcheck // fn returns nil
		if page == nil && p.Truth.Kind == webgen.KindCategory {
			page = webgraph.NewPage(p.URL, p.HTML)
		}
		return nil
	})
	if page == nil {
		b.Fatal("world has no category page")
	}
	return page, RestaurantDomain(w.Cities(), webgen.Cuisines())
}

// BenchmarkPropagatePage is the propagate pass over one aggregator page,
// with the trusted set the page's own list pass vouches for, on a fresh
// analysis each op. pass=propagate runs the pass alone, so it pays for
// whatever page walk the pass needs; pass=list+propagate runs the list pass
// first, as the build does, so that work moved from one pass to the other
// shows.
func BenchmarkPropagatePage(b *testing.B) {
	page, d := aggregatorPage(b)
	prop := &SitePropagator{Inner: &ListExtractor{Domain: d}}
	list, sigs := prop.listPage(Analyze(page))
	if len(sigs) == 0 {
		b.Fatal("the page vouches for no signature")
	}
	trusted := make(map[string]bool)
	for _, s := range sigs {
		trusted[s] = true
	}
	tails := trustedTails(trusted)
	_, cps := Analyze(page).Singles(2)
	for _, cp := range cps {
		if trusted[cp] {
			b.Fatalf("single %s is trusted", cp)
		}
	}
	b.Run("pass=propagate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := prop.propagatePage(Analyze(page), trusted, tails, list); len(got) != 0 {
				b.Fatalf("propagated %d candidates", len(got))
			}
		}
	})
	b.Run("pass=list+propagate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pa := Analyze(page)
			list, _ := prop.listPage(pa)
			if got := prop.propagatePage(pa, trusted, tails, list); len(got) != 0 {
				b.Fatalf("propagated %d candidates", len(got))
			}
		}
	})
}
