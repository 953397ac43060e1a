package extract

import (
	"strings"
	"testing"

	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

const categoryPageHTML = `<html><head><title>Italian in San Jose</title></head><body>
<ul class="nav"><li><a href="/">Home</a></li><li><a href="/about">About</a></li>
<li><a href="/contact">Contact</a></li><li><a href="/help">Help</a></li></ul>
<h1>Italian Restaurants in San Jose</h1>
<ul class="results">
<li class="result"><a class="name" href="/biz/luigi">Luigi Trattoria</a>
<span class="addr">12 Main St</span><span class="zip">95112</span><span class="phone">408-555-0101</span></li>
<li class="result"><a class="name" href="/biz/roma">Roma Kitchen</a>
<span class="addr">900 Park Ave</span><span class="zip">95113</span><span class="phone">(408) 555-0102</span></li>
<li class="result"><a class="name" href="/biz/nonna">Nonna House</a>
<span class="addr">77 Market St</span><span class="zip">95112</span><span class="phone">408.555.0103</span></li>
</ul>
<ul class="related-searches"><li><a href="/s/1">best italian</a></li>
<li><a href="/s/2">italian delivery</a></li><li><a href="/s/3">cheap italian</a></li></ul>
</body></html>`

func restaurantExtractor() *ListExtractor {
	return &ListExtractor{Domain: RestaurantDomain(
		[]string{"San Jose", "Cupertino", "Santa Clara"},
		[]string{"italian", "mexican", "chinese"})}
}

func TestListExtractCategoryPage(t *testing.T) {
	p := webgraph.NewPage("agg.example/c/san-jose-italian", categoryPageHTML)
	cands := restaurantExtractor().Extract(p)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3: %+v", len(cands), cands)
	}
	byName := map[string]*Candidate{}
	for _, c := range cands {
		byName[c.Get("name")] = c
		if c.Concept != "restaurant" {
			t.Errorf("concept = %q", c.Concept)
		}
		if c.SourceURL != p.URL {
			t.Errorf("lineage source = %q", c.SourceURL)
		}
		if len(c.Operators) == 0 || !strings.HasPrefix(c.Operators[0], "listextract") {
			t.Errorf("lineage ops = %v", c.Operators)
		}
	}
	luigi := byName["Luigi Trattoria"]
	if luigi == nil {
		t.Fatalf("Luigi missing: %v", byName)
	}
	if luigi.Get("zip") != "95112" {
		t.Errorf("zip = %q", luigi.Get("zip"))
	}
	if luigi.Get("phone") != "408-555-0101" {
		t.Errorf("phone = %q", luigi.Get("phone"))
	}
	if luigi.Get("street") != "12 Main St" {
		t.Errorf("street = %q", luigi.Get("street"))
	}
}

func TestListExtractRejectsNavDecoys(t *testing.T) {
	p := webgraph.NewPage("agg.example/c/x", categoryPageHTML)
	cands := restaurantExtractor().Extract(p)
	for _, c := range cands {
		n := textproc.Normalize(c.Get("name"))
		for _, bad := range []string{"home", "about", "contact", "best italian", "cheap italian"} {
			if n == bad {
				t.Errorf("decoy extracted as record: %q", n)
			}
		}
	}
}

// TestEvidenceLessItemBuildsNoCandidate: once the page analysis is warm, an
// item or a page without evidence is turned away without an allocation —
// no candidate, no consumed-span map, no scan beyond the evidence
// recognizers' memoised ones.
func TestEvidenceLessItemBuildsNoCandidate(t *testing.T) {
	pa := Analyze(webgraph.NewPage("agg.example/about", `<html><head><title>About us</title></head><body>
<ul class="nav"><li><a href="/">Home</a></li><li><a href="/about">About</a></li><li><a href="/help">Help</a></li></ul>
<h1>About us</h1><p>Open since 1998 in San Jose, 4.5 stars.</p></body></html>`))
	le, de := restaurantExtractor(), &DetailExtractor{Domain: restaurantExtractor().Domain}
	nav := pa.Groups(2)[0][0]
	if cand, hasEvidence, ok := le.parseItem(pa, nav); cand != nil || hasEvidence || !ok {
		t.Fatalf("nav item %q: (%v, %v, %v), want (nil, false, true)", nav.Text(), cand, hasEvidence, ok)
	}
	if got := de.ExtractAnalyzed(pa); got != nil {
		t.Fatalf("detail over an evidence-less page: %+v", got)
	}
	if n := testing.AllocsPerRun(100, func() { le.parseItem(pa, nav) }); n != 0 {
		t.Errorf("parseItem over a nav item: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { de.ExtractAnalyzed(pa) }); n != 0 {
		t.Errorf("detail over an evidence-less page: %.1f allocs, want 0", n)
	}
}

func TestListExtractTableStyle(t *testing.T) {
	html := `<html><body><table class="results">
<tr><th>Restaurant</th><th>Address</th><th>Zip</th><th>Phone</th></tr>
<tr class="result-row"><td><a href="/b/1">Taco Loco</a></td><td>1 First Ave</td><td>95050</td><td>408-555-0201</td></tr>
<tr class="result-row"><td><a href="/b/2">El Farol</a></td><td>2 Main St</td><td>95051</td><td>408-555-0202</td></tr>
<tr class="result-row"><td><a href="/b/3">Casa Azul</a></td><td>3 Park Ave</td><td>95050</td><td>408-555-0203</td></tr>
</table></body></html>`
	p := webgraph.NewPage("agg.example/t", html)
	cands := restaurantExtractor().Extract(p)
	if len(cands) != 3 {
		t.Fatalf("got %d from table, want 3", len(cands))
	}
	for _, c := range cands {
		if c.Get("name") == "" || c.Get("zip") == "" {
			t.Errorf("incomplete: %v %v", c.Get("name"), c.Attrs)
		}
	}
}

func TestListExtractConstraintRejection(t *testing.T) {
	// An "item" containing two different zips spans multiple records and
	// must be rejected by the multiplicity constraint.
	html := `<html><body><ul class="results">
<li class="result"><a href="/1">Mega Row</a> 95112 and also 95050 408-555-0301</li>
<li class="result"><a href="/2">Good Row</a> 95112 408-555-0302</li>
<li class="result"><a href="/3">Other Row</a> 95113 408-555-0303</li>
</ul></body></html>`
	p := webgraph.NewPage("agg.example/c", html)
	cands := restaurantExtractor().Extract(p)
	for _, c := range cands {
		if c.Get("name") == "Mega Row" {
			t.Error("constraint-violating item extracted")
		}
	}
	if len(cands) != 2 {
		t.Errorf("got %d candidates, want 2", len(cands))
	}
}

func TestListExtractMenu(t *testing.T) {
	html := `<html><body><ul class="menu">
<li class="dish"><span class="dish-name">Margherita Pizza</span><span class="dish-price">$12.50</span></li>
<li class="dish"><span class="dish-name">Lasagna</span><span class="dish-price">$14.00</span></li>
<li class="dish"><span class="dish-name">Tiramisu</span><span class="dish-price">$7.25</span></li>
</ul></body></html>`
	p := webgraph.NewPage("rest.example/menu", html)
	e := &ListExtractor{Domain: MenuDomain()}
	cands := e.Extract(p)
	if len(cands) != 3 {
		t.Fatalf("got %d menu items", len(cands))
	}
	if cands[0].Get("name") != "Margherita Pizza" || cands[0].Get("price") != "$12.50" {
		t.Errorf("item = %v", cands[0].Attrs)
	}
}

func TestListExtractEmptyAndJunkPages(t *testing.T) {
	e := restaurantExtractor()
	for _, html := range []string{
		"", "<html></html>",
		"<html><body><p>just prose, no lists</p></body></html>",
		"<html><body><ul><li>a</li><li>b</li><li>c</li></ul></body></html>", // list, no evidence
	} {
		p := webgraph.NewPage("x.example/p", html)
		if cands := e.Extract(p); len(cands) != 0 {
			t.Errorf("junk page %q yielded %d candidates", html[:min(30, len(html))], len(cands))
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Integration: run list extraction over real webgen category pages and score
// against ground truth. The shape claim of A1: high precision and recall on
// structured aggregator lists, with no supervision.
func TestListExtractOnSyntheticWorld(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 60
	cfg.ReviewArticles = 10
	w := webgen.Generate(cfg)
	e := &SitePropagator{Inner: &ListExtractor{Domain: RestaurantDomain(w.Cities(), nil)}}
	tp, fp, total := 0, 0, 0
	for _, host := range []string{"welp.example", "citysift.example", "yellowfile.example"} {
		site, _ := w.SiteByHost(host)
		var pages []*webgraph.Page
		truthNames := make(map[string]bool)
		for _, page := range site.Pages {
			if page.Truth.Kind != webgen.KindCategory {
				continue
			}
			for _, id := range page.Truth.EntityIDs {
				r, _ := w.RestaurantByID(id)
				for v := 0; v < 3; v++ {
					truthNames[textproc.Normalize(r.NameVariant(v))] = true
				}
			}
			total += len(page.Truth.EntityIDs)
			pages = append(pages, webgraph.NewPage(page.URL, page.HTML))
		}
		for _, c := range e.ExtractSite(pages) {
			if truthNames[textproc.Normalize(c.Get("name"))] {
				tp++
			} else {
				fp++
			}
		}
	}
	if total == 0 {
		t.Fatal("no category pages in world")
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(total)
	t.Logf("list extraction: precision=%.3f recall=%.3f (tp=%d fp=%d total=%d)", precision, recall, tp, fp, total)
	if precision < 0.9 {
		t.Errorf("precision %.3f too low", precision)
	}
	if recall < 0.8 {
		t.Errorf("recall %.3f too low", recall)
	}
}

func TestDetailExtractorOnBizPage(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 30
	cfg.ReviewArticles = 5
	w := webgen.Generate(cfg)
	e := &DetailExtractor{Domain: RestaurantDomain(w.Cities(), nil)}
	checked := 0
	for _, page := range w.Pages() {
		if page.Truth.Kind != webgen.KindBiz || page.Truth.Site != webgen.PrimaryAggregator {
			continue
		}
		r, _ := w.RestaurantByID(page.Truth.EntityIDs[0])
		cands := e.Extract(webgraph.NewPage(page.URL, page.HTML))
		if len(cands) != 1 {
			t.Fatalf("biz page %s: %d candidates", page.URL, len(cands))
		}
		c := cands[0]
		if c.Get("zip") != r.Zip {
			t.Errorf("%s: zip %q want %q", page.URL, c.Get("zip"), r.Zip)
		}
		if c.Get("city") != r.City {
			t.Errorf("%s: city %q want %q", page.URL, c.Get("city"), r.City)
		}
		if textproc.Normalize(c.Get("name")) != textproc.Normalize(r.Name) {
			t.Errorf("%s: name %q want %q", page.URL, c.Get("name"), r.Name)
		}
		checked++
		if checked >= 15 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no biz pages checked")
	}
}

func TestDetailExtractorRejectsListingPages(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 40
	cfg.ReviewArticles = 5
	w := webgen.Generate(cfg)
	e := &DetailExtractor{Domain: RestaurantDomain(w.Cities(), nil)}
	rejected, multi := 0, 0
	for _, page := range w.Pages() {
		if page.Truth.Kind != webgen.KindCategory || len(page.Truth.EntityIDs) < 2 {
			continue
		}
		multi++
		if cands := e.Extract(webgraph.NewPage(page.URL, page.HTML)); len(cands) == 0 {
			rejected++
		}
	}
	if multi == 0 {
		t.Skip("no multi-entity category pages at this size")
	}
	if frac := float64(rejected) / float64(multi); frac < 0.9 {
		t.Errorf("only %.2f of listing pages rejected by detail extractor", frac)
	}
}

func TestPipelineRuns(t *testing.T) {
	p1 := webgraph.NewPage("a.example/1", categoryPageHTML)
	pl := &Pipeline{Ops: []Operator{restaurantExtractor(), &DetailExtractor{Domain: MenuDomain()}}}
	cands := pl.Run([]*webgraph.Page{p1})
	if len(cands) == 0 {
		t.Error("pipeline produced nothing")
	}
}
