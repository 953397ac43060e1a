package core

import (
	"os"
	"strings"
	"sync"
	"testing"

	"conceptweb/internal/classify"
	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/obs"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

func smallWorld() *webgen.World {
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 50
	cfg.Authors = 8
	cfg.Papers = 15
	cfg.Cameras = 4
	cfg.Shows = 4
	cfg.Actors = 8
	cfg.ReviewArticles = 30
	cfg.TVArticles = 4
	return webgen.Generate(cfg)
}

// buildWorld runs the standard pipeline over a world; cached per test run
// because Build is the expensive step nearly every test here needs.
var (
	buildOnce  sync.Once
	builtWorld *webgen.World
	builtWoc   *WebOfConcepts
	builtStats *BuildStats
	builtB     *Builder
)

func built(t *testing.T) (*webgen.World, *WebOfConcepts, *BuildStats, *Builder) {
	t.Helper()
	buildOnce.Do(func() {
		w := smallWorld()
		reg := lrec.NewRegistry()
		webgen.RegisterConcepts(reg)
		b := &Builder{Fetcher: w, Cfg: StandardConfig(reg, w.Cities(), nil)}
		woc, stats, err := b.Build(w.SeedURLs())
		if err != nil {
			panic(err)
		}
		builtWorld, builtWoc, builtStats, builtB = w, woc, stats, b
	})
	return builtWorld, builtWoc, builtStats, builtB
}

// TestMain closes the shared build when the package's tests are done, which
// removes its temporary page store.
func TestMain(m *testing.M) {
	code := m.Run()
	if builtWoc != nil {
		builtWoc.Close()
	}
	os.Exit(code)
}

// testPageStore opens a page store in a fresh test directory, closed when
// the test ends.
func testPageStore(t testing.TB) *webgraph.Store {
	t.Helper()
	ps, err := webgraph.OpenDiskStore(t.TempDir(), webgraph.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return ps
}

func TestBuildCrawlsEverything(t *testing.T) {
	w, woc, stats, _ := built(t)
	if stats.PagesFetched != len(w.Pages()) {
		t.Errorf("fetched %d of %d pages", stats.PagesFetched, len(w.Pages()))
	}
	if stats.FetchFailures != 0 {
		t.Errorf("fetch failures = %d", stats.FetchFailures)
	}
	if woc.DocIndex.Len() != stats.PagesFetched {
		t.Errorf("doc index has %d of %d pages", woc.DocIndex.Len(), stats.PagesFetched)
	}
}

func TestBuildResolvesRestaurants(t *testing.T) {
	w, woc, _, _ := built(t)
	n := woc.Records.CountByConcept("restaurant")
	want := len(w.Restaurants)
	// Each restaurant appears on up to 3 aggregators plus its homepage and a
	// portal page; resolution should collapse those to roughly one record
	// per real restaurant. Allow slack for hotels (extracted as restaurant
	// lookalikes without a classifier gate) and unresolved variants.
	if n < want || n > want+len(w.Hotels)+want/4 {
		t.Errorf("restaurant records = %d, ground truth = %d (+%d hotels)", n, want, len(w.Hotels))
	}
}

func TestBuildMergesAcrossSources(t *testing.T) {
	w, woc, _, _ := built(t)
	// Find a restaurant covered by the primary aggregator with a homepage;
	// its record should carry evidence from several sources.
	merged := 0
	for _, r := range w.Restaurants {
		recs := woc.Records.ByAttr("restaurant", "phone", r.Phone)
		if len(recs) != 1 {
			continue
		}
		rec := recs[0]
		if textproc.Normalize(rec.Get("zip")) != r.Zip {
			t.Errorf("record for %s has zip %q want %q", r.Name, rec.Get("zip"), r.Zip)
		}
		sources := map[string]bool{}
		for _, k := range rec.Keys() {
			for _, v := range rec.All(k) {
				host := strings.SplitN(v.Prov.SourceURL, "/", 2)[0]
				sources[host] = true
			}
		}
		if len(sources) >= 3 {
			merged++
		}
	}
	if merged < len(w.Restaurants)/3 {
		t.Errorf("only %d/%d restaurants merged from >=3 sources", merged, len(w.Restaurants))
	}
}

func TestBuildFindsHomepages(t *testing.T) {
	w, woc, _, _ := built(t)
	found, total := 0, 0
	for _, r := range w.Restaurants {
		if r.Homepage == "" {
			continue
		}
		total++
		recs := woc.Records.ByAttr("restaurant", "phone", r.Phone)
		if len(recs) != 1 {
			continue
		}
		hp := recs[0].Get("homepage")
		if strings.TrimSuffix(hp, "/") == strings.TrimSuffix(r.Homepage, "/") {
			found++
		}
	}
	if total == 0 {
		t.Fatal("no restaurants with homepages")
	}
	frac := float64(found) / float64(total)
	t.Logf("homepage attribute found for %.2f of restaurants (%d/%d)", frac, found, total)
	if frac < 0.7 {
		t.Errorf("homepage coverage %.2f too low", frac)
	}
}

func TestBuildLinksReviews(t *testing.T) {
	w, woc, stats, _ := built(t)
	if stats.PagesLinked == 0 || stats.ReviewRecords == 0 {
		t.Fatalf("no reviews linked: %+v", stats)
	}
	// Score linking against ReviewTruth: for blog posts that got linked, the
	// linked record's phone should belong to one of the true subjects.
	correct, linked := 0, 0
	for url, ids := range w.ReviewTruth {
		assoc := woc.AssocOf(url)
		if len(assoc) == 0 {
			continue
		}
		linked++
		rec, err := woc.Records.Get(assoc[0])
		if err != nil {
			continue
		}
		for _, id := range ids {
			r, _ := w.RestaurantByID(id)
			if r != nil && (textproc.Normalize(rec.Get("phone")) == textproc.Normalize(r.Phone) ||
				textproc.Normalize(rec.Get("name")) == textproc.Normalize(r.Name)) {
				correct++
				break
			}
		}
	}
	if linked == 0 {
		t.Fatal("no truth reviews linked")
	}
	prec := float64(correct) / float64(linked)
	recall := float64(linked) / float64(len(w.ReviewTruth))
	t.Logf("review linking: precision=%.2f recall=%.2f (%d/%d linked)", prec, recall, linked, len(w.ReviewTruth))
	if prec < 0.75 {
		t.Errorf("review-link precision %.2f too low", prec)
	}
	if recall < 0.5 {
		t.Errorf("review-link recall %.2f too low", recall)
	}
}

func TestLineageExplainsValues(t *testing.T) {
	w, woc, _, _ := built(t)
	recs := woc.Records.ByAttr("restaurant", "phone", w.Restaurants[0].Phone)
	if len(recs) == 0 {
		t.Skip("restaurant 0 not resolved to a single record")
	}
	lines, err := woc.Lineage(recs[0].ID)
	if err != nil || len(lines) == 0 {
		t.Fatalf("lineage: %v %v", lines, err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "via") || !strings.Contains(joined, "phone=") {
		t.Errorf("lineage lacks provenance detail:\n%s", joined)
	}
	if _, err := woc.Lineage("nonexistent"); err == nil {
		t.Error("lineage of missing record should fail")
	}
}

func TestReconcileTrimsConflicts(t *testing.T) {
	_, woc, _, _ := built(t)
	// Stale aggregator data gives some restaurants two streets; the
	// registry says street has MaxValues 1. Reconcile must fix them all.
	overfull := 0
	for _, r := range woc.Records.ByConcept("restaurant") {
		if len(r.All("street")) > 1 {
			overfull++
		}
	}
	changed := woc.Reconcile("restaurant", PreferSupport)
	if overfull > 0 && changed == 0 {
		t.Errorf("overfull=%d but reconcile changed nothing", overfull)
	}
	for _, r := range woc.Records.ByConcept("restaurant") {
		if len(r.All("street")) > 1 {
			t.Errorf("record %s still has %d streets", r.ID, len(r.All("street")))
		}
	}
	t.Logf("reconcile: %d records had conflicting streets, %d records trimmed", overfull, changed)
}

func TestReconcilePrefersSupportedValue(t *testing.T) {
	reg := lrec.NewRegistry()
	reg.Register(lrec.Concept{Name: "restaurant",
		Attrs: []lrec.AttrSpec{{Key: "street", MaxValues: 1}}})
	woc := &WebOfConcepts{Registry: reg, Records: lrec.NewMemStore(lrec.WithRegistry(reg)), RecIndex: index.NewSharded(1)}
	r := lrec.NewRecord("x", "restaurant")
	r.Add("street", lrec.AttrValue{Value: "1 Fresh Ave", Confidence: 0.8, Support: 3,
		Prov: lrec.Provenance{SourceURL: "a", Seq: 5}})
	r.Add("street", lrec.AttrValue{Value: "9 Stale Rd", Confidence: 0.9, Support: 1,
		Prov: lrec.Provenance{SourceURL: "b", Seq: 9}})
	woc.Records.Put(r)
	if n := woc.Reconcile("restaurant", PreferSupport); n != 1 {
		t.Fatalf("changed = %d", n)
	}
	got, _ := woc.Records.Get("x")
	if got.Get("street") != "1 Fresh Ave" {
		t.Errorf("kept %q, want the 3-source value", got.Get("street"))
	}
	// PreferRecent keeps the newest instead.
	woc2 := &WebOfConcepts{Registry: reg, Records: lrec.NewMemStore(lrec.WithRegistry(reg)), RecIndex: index.NewSharded(1)}
	woc2.Records.Put(r)
	woc2.Reconcile("restaurant", PreferRecent)
	got2, _ := woc2.Records.Get("x")
	if got2.Get("street") != "9 Stale Rd" {
		t.Errorf("PreferRecent kept %q", got2.Get("street"))
	}
}

// overlayFetcher simulates page change on top of a world.
type overlayFetcher struct {
	w       *webgen.World
	overlay map[string]string
}

func (o *overlayFetcher) Fetch(url string) (string, error) {
	if html, ok := o.overlay[url]; ok {
		return html, nil
	}
	return o.w.Fetch(url)
}

func TestRefreshSkipsUnchanged(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	b := &Builder{Fetcher: w, Cfg: StandardConfig(reg, w.Cities(), nil)}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	var urls []string
	for _, p := range w.Pages()[:40] {
		urls = append(urls, p.URL)
	}
	stats, err := b.Refresh(woc, urls)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesUnchanged != 40 || stats.PagesChanged != 0 {
		t.Errorf("stats = %+v, want all unchanged", stats)
	}
}

func TestRefreshAppliesChange(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	of := &overlayFetcher{w: w, overlay: map[string]string{}}
	b := &Builder{Fetcher: of, Cfg: StandardConfig(reg, w.Cities(), nil)}
	b.Cfg.Metrics = obs.NewRegistry()
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()

	// Pick a restaurant with a homepage and change its phone there.
	var target *webgen.Restaurant
	for _, r := range w.Restaurants {
		if r.Homepage != "" {
			if recs := woc.Records.ByAttr("restaurant", "phone", r.Phone); len(recs) == 1 {
				target = r
				break
			}
		}
	}
	if target == nil {
		t.Fatal("no suitable restaurant")
	}
	const newPhone = "408-555-9876"
	hp := strings.TrimSuffix(target.Homepage, "/") + "/"
	page, _ := w.PageByURL(hp)
	of.overlay[hp] = strings.ReplaceAll(page.HTML, target.Phone, newPhone)

	stats, err := b.Refresh(woc, []string{hp})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesChanged != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.RecordsUpdated == 0 && stats.RecordsCreated == 0 {
		t.Fatal("change produced no record effect")
	}
	// The existing record should now also carry the new phone (linked to the
	// existing record, not a fresh one — §7.3).
	recs := woc.Records.ByAttr("restaurant", "phone", newPhone)
	if len(recs) != 1 {
		t.Fatalf("new phone found on %d records", len(recs))
	}
	if recs[0].Get("zip") != target.Zip {
		t.Errorf("updated record lost zip: %s", recs[0])
	}
	if stats.RecordsCreated > 0 && stats.RecordsUpdated == 0 {
		t.Errorf("change created a new record instead of updating: %+v", stats)
	}
	// The rebuilt record looked for its target among the stored restaurants:
	// the pass reports how many of those pairs it scored and how many the
	// bound skipped, in its stats and in the registry.
	if stats.UpsertCompared == 0 || stats.UpsertPruned == 0 {
		t.Errorf("upsert pairs compared %d, pruned %d: want both non-zero", stats.UpsertCompared, stats.UpsertPruned)
	}
	counters := b.Cfg.Metrics.Snapshot().Counters
	if counters["refresh.upsert.compared"] != int64(stats.UpsertCompared) ||
		counters["refresh.upsert.pruned"] != int64(stats.UpsertPruned) {
		t.Errorf("registry refresh.upsert.compared/pruned = %d/%d, stats %d/%d", counters["refresh.upsert.compared"],
			counters["refresh.upsert.pruned"], stats.UpsertCompared, stats.UpsertPruned)
	}
	// Build left the extraction memo behind, so of the re-extracted hosts'
	// pages only the changed one was analysed; the rest were replayed.
	if stats.PagesAnalyzed != 1 || stats.PagesReplayed == 0 || stats.HostsReinduced != 0 {
		t.Errorf("extract stage analysed %d pages, replayed %d, re-induced %d hosts: want 1, some, 0",
			stats.PagesAnalyzed, stats.PagesReplayed, stats.HostsReinduced)
	}
	if counters["refresh.extract.analyzed"] != int64(stats.PagesAnalyzed) ||
		counters["refresh.extract.replayed"] != int64(stats.PagesReplayed) ||
		counters["refresh.extract.reinduced"] != int64(stats.HostsReinduced) {
		t.Errorf("registry refresh.extract.* = %d/%d/%d, stats %d/%d/%d", counters["refresh.extract.analyzed"],
			counters["refresh.extract.replayed"], counters["refresh.extract.reinduced"],
			stats.PagesAnalyzed, stats.PagesReplayed, stats.HostsReinduced)
	}
}

func TestClassifierGateExcludesHotels(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)

	// Train the global classifier on two portals' truth labels.
	nb := classify.NewNaiveBayes()
	for _, city := range w.Cities()[:2] {
		site, _ := w.SiteByHost(webgen.PortalHost(city))
		for _, p := range site.Pages {
			nb.Train(classify.Features(webgraph.NewPage(p.URL, p.HTML)), p.Truth.Category)
		}
	}

	// Pre-crawl to build the store/graph the gate needs.
	st := testPageStore(t)
	(&webgraph.Crawler{Fetcher: w, Store: st}).Crawl(w.SeedURLs())
	graph := webgraph.BuildGraph(st)
	var portalHosts []string
	for _, city := range w.Cities() {
		portalHosts = append(portalHosts, webgen.PortalHost(city))
	}
	gate := ClassifierGate(nb, map[string]string{"restaurant": webgen.CatRestaurants},
		st, graph, portalHosts)

	cfg := StandardConfig(reg, w.Cities(), nil)
	cfg.Gate = gate
	b := &Builder{Fetcher: w, Cfg: cfg}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	// No hotel should be stored as a restaurant.
	leaked := 0
	for _, h := range w.Hotels {
		if len(woc.Records.ByAttr("restaurant", "phone", h.Phone)) > 0 {
			leaked++
		}
	}
	if leaked > len(w.Hotels)/5 {
		t.Errorf("%d/%d hotels leaked into restaurant concept despite gate", leaked, len(w.Hotels))
	}
	// And real restaurants must still be there.
	if n := woc.Records.CountByConcept("restaurant"); n < len(w.Restaurants)*3/4 {
		t.Errorf("gate removed too much: %d records for %d restaurants", n, len(w.Restaurants))
	}
}

func TestBuildExtractsEvents(t *testing.T) {
	w, woc, _, _ := built(t)
	n := woc.Records.CountByConcept("event")
	want := len(w.Events)
	t.Logf("event records: %d (ground truth %d)", n, want)
	if n < want/2 {
		t.Errorf("too few events extracted: %d of %d", n, want)
	}
	if n > want*2 {
		t.Errorf("event over-extraction: %d of %d", n, want)
	}
	// Spot-check one event's attributes.
	found := false
	for _, e := range w.Events {
		recs := woc.Records.ByAttr("event", "date", e.Date)
		for _, rec := range recs {
			if textproc.Normalize(rec.Get("city")) == textproc.Normalize(e.City) {
				found = true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Error("no event record matches ground truth date+city")
	}
}

func TestEventAugmentationsFromExtraction(t *testing.T) {
	w, woc, _, _ := built(t)
	if woc.Records.CountByConcept("event") == 0 {
		t.Skip("no events extracted")
	}
	// A restaurant in a city with events should get event augmentations.
	for _, r := range w.Restaurants {
		recs := woc.Records.ByAttr("restaurant", "phone", r.Phone)
		if len(recs) != 1 {
			continue
		}
		evs := woc.Records.ByAttr("event", "city", r.City)
		if len(evs) == 0 {
			continue
		}
		// The recommendation layer lives in session; here we verify the
		// data dependency it needs: same-city events exist in the store.
		return
	}
	t.Error("no restaurant has same-city extracted events")
}
