package search

import (
	"os"
	"strings"
	"sync"
	"testing"

	"conceptweb/internal/core"
	"conceptweb/internal/logsim"
	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
)

var (
	onceBuild sync.Once
	tw        *webgen.World
	teng      *Engine
)

// TestMain closes the shared fixtures when the package's tests are done,
// which removes their temporary page stores.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, e := range []*Engine{teng, heavyEng} {
		if e != nil {
			e.Woc.Close()
		}
	}
	os.Exit(code)
}

func engine(t *testing.T) (*webgen.World, *Engine) {
	t.Helper()
	onceBuild.Do(func() {
		cfg := webgen.DefaultConfig()
		cfg.Restaurants = 60
		cfg.Authors = 8
		cfg.Papers = 15
		cfg.ReviewArticles = 30
		cfg.TVArticles = 4
		w := webgen.Generate(cfg)
		reg := lrec.NewRegistry()
		webgen.RegisterConcepts(reg)
		b := &core.Builder{Fetcher: w, Cfg: core.StandardConfig(reg, w.Cities(), webgen.Cuisines())}
		woc, _, err := b.Build(w.SeedURLs())
		if err != nil {
			panic(err)
		}
		woc.Reconcile("restaurant", core.PreferSupport)
		b.EnrichMenus(woc)
		tw = w
		teng = NewEngine(woc, NewParser(w.Cities(), webgen.Cuisines()))
	})
	return tw, teng
}

// testRestaurant picks a restaurant with a homepage whose record resolved
// cleanly (unique by phone).
func testRestaurant(t *testing.T) (*webgen.Restaurant, *lrec.Record) {
	w, e := engine(t)
	for _, r := range w.Restaurants {
		if r.Homepage == "" {
			continue
		}
		recs := e.Woc.Records.ByAttr("restaurant", "phone", r.Phone)
		if len(recs) == 1 && recs[0].Get("homepage") != "" {
			return r, recs[0]
		}
	}
	t.Fatal("no suitable restaurant")
	return nil, nil
}

func TestParseIntents(t *testing.T) {
	_, e := engine(t)
	cases := []struct {
		q    string
		kind IntentKind
	}{
		{"golden dragon grill cupertino", IntentInstance},
		{"best mexican san jose", IntentSet},
		{"italian restaurants in sunnyvale", IntentSet},
		{"golden dragon menu", IntentAttribute},
		{"blue agave coupons", IntentAttribute},
	}
	for _, c := range cases {
		got := e.Parser.Parse(c.q)
		if got.Kind != c.kind {
			t.Errorf("Parse(%q).Kind = %v, want %v (%+v)", c.q, got.Kind, c.kind, got)
		}
	}
}

func TestParseExtractsConstraints(t *testing.T) {
	_, e := engine(t)
	p := e.Parser.Parse("best mexican food in San Jose")
	if p.City != "San Jose" {
		t.Errorf("city = %q", p.City)
	}
	if p.Category != "mexican" {
		t.Errorf("category = %q", p.Category)
	}
	p = e.Parser.Parse("gochi fusion menu")
	if p.Attribute != "menu" {
		t.Errorf("attribute = %q", p.Attribute)
	}
	if len(p.NameTokens) == 0 {
		t.Errorf("name tokens = %v", p.NameTokens)
	}
	// Multi-word city beats its substrings.
	p = e.Parser.Parse("tacos mountain view")
	if p.City != "Mountain View" {
		t.Errorf("city = %q", p.City)
	}
}

func TestSuggestAssistance(t *testing.T) {
	_, e := engine(t)
	p := e.Parser.Parse("golden dragon cupertino")
	sugg := e.Parser.SuggestAssistance(p)
	if len(sugg) == 0 {
		t.Fatal("no assistance")
	}
	joined := strings.Join(sugg, "|")
	if !strings.Contains(joined, "menu") {
		t.Errorf("suggestions = %v", sugg)
	}
}

// TestF1ConceptBox reproduces Figure 1: a navigational query for a specific
// restaurant yields a box with address/phone/reviews and the homepage ranked
// with preference.
func TestF1ConceptBox(t *testing.T) {
	r, rec := testRestaurant(t)
	_, e := engine(t)
	page := e.Search(r.Name+" "+r.City, 10)
	if page.Box == nil {
		t.Fatalf("no concept box for %q", r.Name+" "+r.City)
	}
	if page.Box.Record.ID != rec.ID {
		t.Errorf("box record = %s, want %s", page.Box.Record.ID, rec.ID)
	}
	if !strings.Contains(page.Box.Address, r.Zip) {
		t.Errorf("box address %q missing zip", page.Box.Address)
	}
	if page.Box.Phone == "" {
		t.Error("box has no phone")
	}
	// Homepage ranked first with the feature on.
	if len(page.Results) == 0 {
		t.Fatal("no results")
	}
	if !page.Results[0].IsHomepage {
		t.Errorf("top result %q is not the homepage (%s)", page.Results[0].URL, r.Homepage)
	}
}

func TestNoBoxForSetQueries(t *testing.T) {
	_, e := engine(t)
	page := e.Search("best italian san jose", 10)
	if page.Box != nil {
		t.Errorf("set query triggered a box: %+v", page.Box.Name)
	}
}

func TestNoBoxForWrongCity(t *testing.T) {
	w, e := engine(t)
	// Find a restaurant and query it with a different city.
	r, _ := testRestaurant(t)
	other := ""
	for _, c := range w.Cities() {
		if c != r.City {
			other = c
			break
		}
	}
	page := e.Search(r.Name+" "+other, 10)
	if page.Box != nil && page.Box.Record.Get("city") == r.City {
		t.Errorf("box triggered despite city mismatch: %v", page.Box.Name)
	}
}

func TestRankingAugmentationImprovesMRR(t *testing.T) {
	w, e := engine(t)
	mrr := func(boost bool) float64 {
		hb, ab := e.HomepageBoost, e.AssocBoost
		if !boost {
			e.HomepageBoost, e.AssocBoost = 0, 0
		}
		defer func() { e.HomepageBoost, e.AssocBoost = hb, ab }()
		var sum float64
		n := 0
		for _, r := range w.Restaurants {
			if r.Homepage == "" {
				continue
			}
			n++
			page := e.Search(r.Name+" "+r.City, 10)
			want := strings.TrimSuffix(r.Homepage, "/") + "/"
			for i, res := range page.Results {
				if res.URL == want {
					sum += 1 / float64(i+1)
					break
				}
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	plain := mrr(false)
	augmented := mrr(true)
	t.Logf("homepage MRR: plain=%.3f augmented=%.3f", plain, augmented)
	if augmented <= plain {
		t.Errorf("concept features did not improve MRR: %.3f -> %.3f", plain, augmented)
	}
	if augmented < 0.6 {
		t.Errorf("augmented MRR %.3f too low", augmented)
	}
}

func TestConceptSearchSetQuery(t *testing.T) {
	w, e := engine(t)
	// Pick a (city, cuisine) pair with at least 2 restaurants.
	counts := map[[2]string]int{}
	for _, r := range w.Restaurants {
		counts[[2]string{r.City, r.Cuisine}]++
	}
	var city, cuisine string
	for k, n := range counts {
		if n >= 2 {
			city, cuisine = k[0], k[1]
			break
		}
	}
	if city == "" {
		t.Skip("no dense pair")
	}
	hits := e.ConceptSearch("best "+cuisine+" "+strings.ToLower(city), nil, 10)
	if len(hits) == 0 {
		t.Fatalf("no hits for %s %s", cuisine, city)
	}
	for _, h := range hits {
		if got := h.Record.Get("city"); textproc.Normalize(got) != textproc.Normalize(city) {
			t.Errorf("hit %s has city %q, want %q", h.Record.ID, got, city)
		}
	}
	// Top hits should be of the right cuisine.
	if got := hits[0].Record.Get("cuisine"); textproc.Normalize(got) != cuisine {
		t.Errorf("top hit cuisine = %q, want %q", got, cuisine)
	}
}

func TestConceptSearchFilters(t *testing.T) {
	_, e := engine(t)
	hits := e.ConceptSearch("restaurants", []Filter{{Key: "cuisine", Value: "italian"}}, 20)
	for _, h := range hits {
		if textproc.Normalize(h.Record.Get("cuisine")) != "italian" {
			t.Errorf("filter leak: %s is %q", h.Record.ID, h.Record.Get("cuisine"))
		}
	}
}

func TestSearchWithinConcept(t *testing.T) {
	r, rec := testRestaurant(t)
	_, e := engine(t)
	// Search for a dish within the restaurant's own web.
	dish := r.Menu[0]
	res := e.SearchWithinConcept(rec.ID, dish, 5)
	if len(res) == 0 {
		t.Fatalf("no in-concept results for %q", dish)
	}
	member := map[string]bool{}
	for _, u := range e.Woc.PagesOf(rec.ID) {
		member[u] = true
	}
	for _, d := range res {
		if !member[d.URL] {
			t.Errorf("result %s outside the concept's pages", d.URL)
		}
	}
	if e.SearchWithinConcept("nonexistent", dish, 5) != nil {
		t.Error("unknown record should yield nil")
	}
}

func TestAggregationPage(t *testing.T) {
	r, rec := testRestaurant(t)
	_, e := engine(t)
	page, err := e.Aggregate(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if page.Title == "" || len(page.Attrs) == 0 {
		t.Fatalf("page = %+v", page)
	}
	kinds := map[string]int{}
	for _, s := range page.Sources {
		kinds[s.Kind]++
		if s.Trust <= 0 || s.Trust > 1 {
			t.Errorf("trust out of range: %+v", s)
		}
	}
	if kinds["homepage"] == 0 {
		t.Errorf("no homepage source: %v", kinds)
	}
	if kinds["aggregator"] == 0 {
		t.Errorf("no aggregator source: %v", kinds)
	}
	_ = r
	if _, err := e.Aggregate("missing-id"); err == nil {
		t.Error("aggregate of missing id should fail")
	}
}

func TestAggregationSurfacesConflicts(t *testing.T) {
	w, e := engine(t)
	// A moved restaurant has stale street/phone on yellowfile; its page
	// should expose the conflict rather than silently drop it.
	found := false
	for _, r := range w.Restaurants {
		if r.OldPhone == "" {
			continue
		}
		recs := e.Woc.Records.ByAttr("restaurant", "phone", r.Phone)
		if len(recs) != 1 {
			continue
		}
		page, err := e.Aggregate(recs[0].ID)
		if err != nil {
			continue
		}
		for _, av := range page.Attrs {
			if av.Key == "phone" && len(av.Conflicts) > 0 {
				found = true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Log("no conflicting phone surfaced (moves may not be covered by the stale source at this seed)")
	}
}

func TestAttributeQueryBox(t *testing.T) {
	_, e := engine(t)
	r, rec := testRestaurant(t)
	page := e.Search(r.Name+" menu", 5)
	if page.Box == nil {
		t.Skipf("no box for attribute query on %q", r.Name)
	}
	if page.Query.Attribute != "menu" {
		t.Errorf("parsed attribute = %q", page.Query.Attribute)
	}
	cur, err := e.Woc.Records.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Has("menu") {
		if page.Box.Requested.Key != "menu" || page.Box.Requested.Value == "" {
			t.Errorf("requested = %+v, record menu = %q", page.Box.Requested, cur.Get("menu"))
		}
	} else {
		t.Log("record has no enriched menu; Requested stays empty by design")
	}
}

func TestFuzzyTriggerMisspelling(t *testing.T) {
	r, rec := testRestaurant(t)
	_, e := engine(t)
	// Misspell the first name token by swapping two inner letters.
	toks := strings.Fields(r.Name)
	w0 := []byte(strings.ToLower(toks[0]))
	if len(w0) < 4 {
		t.Skip("name token too short to misspell")
	}
	w0[1], w0[2] = w0[2], w0[1]
	if string(w0) == strings.ToLower(toks[0]) {
		w0[len(w0)-2], w0[len(w0)-1] = w0[len(w0)-1], w0[len(w0)-2]
	}
	misspelled := string(w0) + " " + strings.ToLower(strings.Join(toks[1:], " ")) + " " + strings.ToLower(r.City)
	page := e.Search(misspelled, 5)
	if page.Box == nil {
		t.Skipf("fuzzy trigger found nothing for %q (acceptable for heavy misspellings)", misspelled)
	}
	if page.Box.Record.ID != rec.ID {
		t.Errorf("fuzzy box = %s, want %s (query %q)", page.Box.Record.ID, rec.ID, misspelled)
	}
	if page.Box.Confidence >= 0.95 {
		t.Errorf("fuzzy trigger should carry reduced confidence, got %.2f", page.Box.Confidence)
	}
}

func TestFacetsAndRefine(t *testing.T) {
	w, e := engine(t)
	city := strings.ToLower(w.Restaurants[0].City)
	hits := e.ConceptSearch("restaurants in "+city, nil, 40)
	if len(hits) < 3 {
		t.Skipf("too few hits in %s", city)
	}
	facets := Facets(hits, "cuisine", "price")
	cuisines := facets["cuisine"]
	if len(cuisines) == 0 {
		t.Fatal("no cuisine facets")
	}
	// Counts are consistent with the hit set and ordered descending.
	total := 0
	for i, f := range cuisines {
		total += f.Count
		if i > 0 && f.Count > cuisines[i-1].Count {
			t.Error("facets not ordered by count")
		}
	}
	if total > len(hits) {
		t.Errorf("facet counts %d exceed hits %d", total, len(hits))
	}
	// Refining narrows to exactly the facet's records.
	top := cuisines[0]
	refined := e.Refine("restaurants in "+city, top, 40)
	if len(refined) == 0 {
		t.Fatal("refine returned nothing")
	}
	for _, h := range refined {
		if textproc.Normalize(h.Record.Get("cuisine")) != top.Value {
			t.Errorf("refined hit %s has cuisine %q, want %q",
				h.Record.ID, h.Record.Get("cuisine"), top.Value)
		}
	}
}

// TestQueryLogEndToEnd replays simulated §3 instance queries against the
// engine: the query a real user issued to find a restaurant should trigger
// the right concept box and rank a page about that restaurant at the top.
func TestQueryLogEndToEnd(t *testing.T) {
	w, e := engine(t)
	logs := logsim.NewSimulator(w, logsim.DefaultConfig()).Run()
	checked, boxOK, rankOK := 0, 0, 0
	for _, q := range logs.Queries {
		if checked >= 120 {
			break
		}
		// Instance queries are identified by their biz-page click.
		var clicked string
		for _, u := range q.Clicks {
			if strings.Contains(u, "/biz/") {
				clicked = u
				break
			}
		}
		if clicked == "" {
			continue
		}
		truthIDs := e.Woc.AssocOf(clicked)
		if len(truthIDs) == 0 {
			continue
		}
		checked++
		page := e.Search(q.Query, 8)
		if page.Box != nil {
			for _, id := range truthIDs {
				if page.Box.Record.ID == id {
					boxOK++
					break
				}
			}
		}
		for _, res := range page.Results[:min(3, len(page.Results))] {
			hit := false
			for _, rid := range res.RecordIDs {
				for _, id := range truthIDs {
					if rid == id {
						hit = true
					}
				}
			}
			if hit {
				rankOK++
				break
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d instance queries checked", checked)
	}
	boxAcc := float64(boxOK) / float64(checked)
	rankAcc := float64(rankOK) / float64(checked)
	t.Logf("query-log replay: box accuracy=%.2f, about-page in top-3=%.2f (n=%d)", boxAcc, rankAcc, checked)
	if boxAcc < 0.7 {
		t.Errorf("box accuracy %.2f too low on real query mix", boxAcc)
	}
	if rankAcc < 0.8 {
		t.Errorf("top-3 about-page rate %.2f too low", rankAcc)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
