package core

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"conceptweb/internal/extract"
	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/match"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// flakyFetcher fails deterministically for a fraction of URLs, and can mark
// URLs permanently gone.
type flakyFetcher struct {
	w    *webgen.World
	gone map[string]bool
	// failEvery fails one URL in N, chosen by URL hash (0 = off). The
	// choice must not depend on the order fetches arrive in: the crawler
	// fans them out across goroutines, and with an arrival count scheduling
	// decided whether a directory hub was among the failures — losing its
	// whole subtree and failing the survival test one run in four. The
	// residue picks a set without such a hub; the crawler does not retry,
	// so a failed hub costs its subtree whatever the build does.
	failEvery uint32
}

func (f *flakyFetcher) Fetch(url string) (string, error) {
	if f.gone[url] {
		return "", fmt.Errorf("gone: %s", url)
	}
	if f.failEvery > 0 {
		h := fnv.New32a()
		h.Write([]byte(url))
		if h.Sum32()%f.failEvery == 1 {
			return "", fmt.Errorf("transient failure: %s", url)
		}
	}
	return f.w.Fetch(url)
}

func TestBuildSurvivesFlakyFetcher(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	ff := &flakyFetcher{w: w, failEvery: 10}
	b := &Builder{Fetcher: ff, Cfg: StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, stats, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	if stats.FetchFailures == 0 {
		t.Fatal("flaky fetcher produced no failures; test is vacuous")
	}
	if stats.PagesFetched == 0 || woc.Records.CountByConcept("restaurant") == 0 {
		t.Errorf("build collapsed under 10%% fetch failures: %+v", stats)
	}
	// The build should still have most of the web.
	if float64(stats.PagesFetched) < 0.8*float64(len(w.Pages())) {
		t.Errorf("fetched only %d of %d pages", stats.PagesFetched, len(w.Pages()))
	}
}

// latchingPageStore opens a page store that rolls to a new segment after
// every write, and returns it with a func that removes its directory: from
// then on the next write's roll fails, which latches the store.
func latchingPageStore(t *testing.T) (*webgraph.Store, func()) {
	t.Helper()
	dir := t.TempDir()
	ps, err := webgraph.OpenDiskStore(dir, webgraph.DiskOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return ps, func() { os.RemoveAll(dir) }
}

// tinyWeb is a three-page web: a listing of two restaurants, one detail
// page, and a review.
func tinyWeb() corpusFetcher {
	item := func(name, phone string) string {
		return fmt.Sprintf(`<div class="hit"><a href="/biz/%s">%s</a> <span>12 Alma St, Cupertino 95014</span> <span>%s</span></div>`,
			strings.ToLower(name), name, phone)
	}
	return corpusFetcher{
		"guide.example/": `<html><head><title>Guide</title></head><body>` +
			item("Gochi", "(408) 555-0101") + item("Blue Palm", "(408) 555-0102") + `</body></html>`,
		"guide.example/biz/gochi": `<html><head><title>Gochi</title></head><body><h1>Gochi</h1>` +
			`<p>12 Alma St, Cupertino 95014</p><p>(408) 555-0101</p></body></html>`,
		"blog.example/review": `<html><head><title>A night out</title></head><body><p>` +
			strings.Repeat("Dinner at Gochi on Alma in Cupertino was lovely. ", 4) + `</p></body></html>`,
	}
}

// TestBuildSurfacesPageStoreFailure: a page write that fails during the
// crawl latches the page store, and Build reports it instead of building
// over the pages that landed.
func TestBuildSurfacesPageStoreFailure(t *testing.T) {
	ps, remove := latchingPageStore(t)
	remove()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	cfg := StandardConfig(reg, []string{"Cupertino"}, nil)
	cfg.PageStore = ps
	woc, _, err := (&Builder{Fetcher: tinyWeb(), Cfg: cfg}).Build([]string{"guide.example/", "blog.example/review"})
	if err == nil {
		woc.Close()
		t.Fatal("Build over a latched page store reported no error")
	}
	if ps.Err() == nil || !strings.Contains(err.Error(), "crawl") {
		t.Errorf("Build error %q, page store error %v: want the crawl stage to surface the latched store", err, ps.Err())
	}
}

// TestRefreshSurfacesPageStoreFailure: a changed page whose write fails is
// not counted as unchanged; the pass returns the page store's error before
// anything downstream of the page moves.
func TestRefreshSurfacesPageStoreFailure(t *testing.T) {
	ps, remove := latchingPageStore(t)
	web := tinyWeb()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	cfg := StandardConfig(reg, []string{"Cupertino"}, nil)
	cfg.PageStore = ps
	b := &Builder{Fetcher: web, Cfg: cfg}
	woc, _, err := b.Build([]string{"guide.example/", "blog.example/review"})
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	before := fingerprint(woc)

	remove()
	web["guide.example/"] = strings.Replace(web["guide.example/"], "555-0102", "555-0199", 1)
	st, err := b.Refresh(woc, []string{"guide.example/", "blog.example/review"})
	if err == nil || ps.Err() == nil {
		t.Fatalf("Refresh over a latched page store: err %v, store error %v; want both", err, ps.Err())
	}
	if st.PagesUnchanged != 0 || st.PagesChanged != 0 {
		t.Errorf("failed write counted: %+v", st)
	}
	if fingerprint(woc) != before {
		t.Error("the records moved although the pass failed before supersede")
	}
}

func TestRefreshHandlesGonePages(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	ff := &flakyFetcher{w: w, gone: map[string]bool{}}
	b := &Builder{Fetcher: ff, Cfg: StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()

	// Close down a restaurant: its homepage pages vanish.
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
		t.Fatal("no target restaurant")
	}
	home := strings.TrimSuffix(target.Homepage, "/") + "/"
	ff.gone[home] = true

	if !woc.DocIndex.Has(home) {
		t.Fatal("homepage not indexed before refresh")
	}
	assocBefore := len(woc.AssocOf(home))
	if assocBefore == 0 {
		t.Fatal("homepage had no associations before refresh")
	}

	stats, err := b.Refresh(woc, []string{home})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesGone != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if woc.DocIndex.Has(home) {
		t.Error("gone page still in the document index")
	}
	if len(woc.AssocOf(home)) != 0 {
		t.Error("gone page still has associations")
	}
	// The record survives (other sources still describe the restaurant) but
	// no longer points at the dead page.
	recs := woc.Records.ByAttr("restaurant", "phone", target.Phone)
	if len(recs) != 1 {
		t.Fatalf("record lost: %d", len(recs))
	}
	for _, u := range woc.PagesOf(recs[0].ID) {
		if u == home {
			t.Error("record still linked to gone page")
		}
	}
}

// TestRefreshResurrectsGonePage pins the gone→reappear bug: a page that
// vanishes and later returns with byte-identical content must rejoin the
// document index and association maps. Before webgraph.Store.Delete
// existed, the stale page (and its content hash) stayed in woc.Pages, so
// the reappearance registered as unchanged and was silently dropped.
func TestRefreshResurrectsGonePage(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	ff := &flakyFetcher{w: w, gone: map[string]bool{}}
	b := &Builder{Fetcher: ff, Cfg: StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()

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
		t.Fatal("no target restaurant")
	}
	home := strings.TrimSuffix(target.Homepage, "/") + "/"
	recID := woc.Records.ByAttr("restaurant", "phone", target.Phone)[0].ID

	// The page dies.
	ff.gone[home] = true
	if _, err := b.Refresh(woc, []string{home}); err != nil {
		t.Fatal(err)
	}
	if woc.DocIndex.Has(home) {
		t.Fatal("gone page still indexed")
	}
	if _, err := woc.Pages.Get(home); err == nil {
		t.Fatal("gone page still in the page store")
	}

	// The page returns with identical bytes ("the restaurant re-opens").
	delete(ff.gone, home)
	stats, err := b.Refresh(woc, []string{home})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesChanged != 1 {
		t.Fatalf("resurrection not detected as a change: %+v", stats)
	}
	if !woc.DocIndex.Has(home) {
		t.Error("resurrected page missing from the document index")
	}
	if _, err := woc.Pages.Get(home); err != nil {
		t.Error("resurrected page missing from the page store")
	}
	found := false
	for _, id := range woc.AssocOf(home) {
		if id == recID {
			found = true
		}
	}
	if !found {
		t.Errorf("resurrected page not re-associated with its record: %v", woc.AssocOf(home))
	}
	recs := woc.Records.ByAttr("restaurant", "phone", target.Phone)
	if len(recs) != 1 {
		t.Fatalf("record count after resurrection = %d", len(recs))
	}
}

// TestUpsertTieBreakLowestID pins the entity-match tie-break: when two
// stored candidates score identically against an incoming record, the merge
// must land on the lowest record ID, whatever order the candidates were
// stored or scanned in.
func TestUpsertTieBreakLowestID(t *testing.T) {
	reg := lrec.NewRegistry()
	reg.Register(lrec.Concept{Name: "widget", Domain: "test", Attrs: []lrec.AttrSpec{
		{Key: "name", Kind: lrec.KindName}, {Key: "color", Kind: lrec.KindText},
	}})
	// One comparator whose agreement weight log(0.99/0.01) ≈ 4.6 clears the
	// default Upper threshold of 4.5 on its own.
	m := match.NewMatcher([]match.Comparator{{
		Key: "name",
		Sim: func(a, b string) float64 {
			if a == b {
				return 1
			}
			return 0
		},
		AgreeAt: 0.9, M: 0.99, U: 0.01,
	}})
	b := &Builder{Cfg: Config{Registry: reg, Matchers: map[string]*match.Matcher{"widget": m}}}
	woc := &WebOfConcepts{
		Registry: reg,
		Records:  lrec.NewMemStore(lrec.WithRegistry(reg)),
		Pages:    testPageStore(t),
		DocIndex: index.New(),
		RecIndex: index.New(),
		Assoc:    map[string][]string{},
		RevAssoc: map[string][]string{},
	}
	// Insert in descending-ID order so "first stored wins" cannot mask an
	// iteration-order accident.
	for _, id := range []string{"widget:zz", "widget:aa"} {
		r := lrec.NewRecord(id, "widget")
		r.Set("name", "Same Name")
		if err := woc.Records.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	c := extract.NewCandidate("widget", "w.example/x", "test")
	c.Add("name", "Same Name", 1)
	c.Add("color", "blue", 1)
	created, updated := b.upsert(woc, c.ToRecord(c.SynthesizeID(), woc.Records.NextSeq()),
		storedProfiles(woc.Records, m, "widget"))
	if created != 0 || updated != 1 {
		t.Fatalf("upsert = (%d created, %d updated), want (0, 1)", created, updated)
	}
	low, _ := woc.Records.Get("widget:aa")
	if low.Get("color") != "blue" {
		t.Errorf("equal-score merge skipped the lowest ID: widget:aa = %s", low)
	}
	high, _ := woc.Records.Get("widget:zz")
	if high.Get("color") != "" {
		t.Errorf("equal-score merge landed on the highest ID: widget:zz = %s", high)
	}
}

// TestReconcileDegradedStore: when the store latches read-only mid-flight,
// Reconcile must not diverge what callers read from what the store holds —
// the trim happens on a clone and is only adopted after a successful put.
func TestReconcileDegradedStore(t *testing.T) {
	reg := lrec.NewRegistry()
	reg.Register(lrec.Concept{Name: "widget", Domain: "test", Attrs: []lrec.AttrSpec{
		{Key: "phone", Kind: lrec.KindPhone, MaxValues: 1},
	}})
	mk := func() *WebOfConcepts {
		store := lrec.NewMemStore(lrec.WithRegistry(reg))
		r := lrec.NewRecord("widget:1", "widget")
		r.Add("phone", lrec.AttrValue{Value: "111", Confidence: 0.9, Prov: lrec.Provenance{Seq: 1}})
		r.Add("phone", lrec.AttrValue{Value: "222", Confidence: 0.8, Prov: lrec.Provenance{Seq: 2}})
		if err := store.Put(r); err != nil {
			t.Fatal(err)
		}
		return &WebOfConcepts{Registry: reg, Records: store, RecIndex: index.New()}
	}

	// Healthy store: the over-full attribute trims and persists.
	healthy := mk()
	if changed := healthy.Reconcile("widget", PreferRecent); changed != 1 {
		t.Fatalf("healthy reconcile changed = %d, want 1", changed)
	}
	if cur, _ := healthy.Records.Get("widget:1"); len(cur.All("phone")) != 1 {
		t.Fatalf("healthy reconcile left %d phones", len(cur.All("phone")))
	}

	// Degraded store: the put fails, nothing is counted, and the stored
	// record still holds both values — no memory/store divergence.
	degraded := mk()
	degraded.Records.LatchReadOnly(fmt.Errorf("injected log failure"))
	if changed := degraded.Reconcile("widget", PreferRecent); changed != 0 {
		t.Errorf("degraded reconcile changed = %d, want 0", changed)
	}
	cur, err := degraded.Records.Get("widget:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.All("phone")) != 2 {
		t.Errorf("degraded reconcile diverged: store holds %d phone values, want 2 untouched", len(cur.All("phone")))
	}
}

// TestLiveValueErrorPaths covers the three failure modes of the live-read
// path: a value with no source URL in its provenance, a fetch failure on
// the source page, and a refetched page the recognizer no longer matches.
func TestLiveValueErrorPaths(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	of := &overlayFetcher{w: w, overlay: map[string]string{}}
	ff := &flakyFetcher{w: w, gone: map[string]bool{}}
	// Chain: gone-able wrapper over the overlay wrapper over the world.
	fetch := webgraph.FetcherFunc(func(url string) (string, error) {
		if ff.gone[url] {
			return "", fmt.Errorf("gone: %s", url)
		}
		return of.Fetch(url)
	})
	b := &Builder{Fetcher: fetch, Cfg: StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	var rec *lrec.Record
	for _, r := range w.Restaurants {
		if recs := woc.Records.ByAttr("restaurant", "phone", r.Phone); len(recs) == 1 {
			rec = recs[0]
			break
		}
	}
	if rec == nil {
		t.Fatal("no target record")
	}
	best, _ := rec.Best("phone")
	src := best.Prov.SourceURL
	if src == "" {
		t.Fatal("target phone has no provenance; test setup broken")
	}

	// Missing provenance URL: a record whose best value carries no source.
	unsourced := lrec.NewRecord("restaurant:unsourced-test", "restaurant")
	unsourced.Add("name", lrec.AttrValue{Value: "No Prov Cafe", Confidence: 1})
	unsourced.Add("phone", lrec.AttrValue{Value: "408-555-0000", Confidence: 1})
	if err := woc.Records.Put(unsourced); err != nil {
		t.Fatal(err)
	}
	if _, err := b.LiveValue(woc, "restaurant:unsourced-test", "phone"); err == nil {
		t.Error("unsourced value should fail")
	}

	// Fetch failure: the source page is gone.
	ff.gone[src] = true
	if _, err := b.LiveValue(woc, rec.ID, "phone"); err == nil {
		t.Error("fetch failure should surface as an error")
	}
	delete(ff.gone, src)

	// Recognizer miss: the page now holds no recognizable phone.
	of.overlay[src] = "<html><head><title>moved</title></head><body>we have moved, call the new owner</body></html>"
	if _, err := b.LiveValue(woc, rec.ID, "phone"); err == nil {
		t.Error("recognizer miss should surface as an error")
	}
}

func TestLiveValueReadsSourceDocument(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	of := &overlayFetcher{w: w, overlay: map[string]string{}}
	b := &Builder{Fetcher: of, Cfg: StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	var target *webgen.Restaurant
	var rec *lrec.Record
	for _, r := range w.Restaurants {
		if recs := woc.Records.ByAttr("restaurant", "phone", r.Phone); len(recs) == 1 {
			target, rec = r, recs[0]
			break
		}
	}
	if target == nil {
		t.Fatal("no target")
	}
	// Live value agrees with the store before any change.
	live, err := b.LiveValue(woc, rec.ID, "phone")
	if err != nil {
		t.Fatal(err)
	}
	// Now the source page changes; the store is stale but LiveValue is not.
	best, _ := rec.Best("phone")
	src := best.Prov.SourceURL
	page, ok := w.PageByURL(src)
	if !ok {
		t.Fatalf("source %s not in world", src)
	}
	const newPhone = "408-555-4242"
	of.overlay[src] = strings.ReplaceAll(page.HTML, best.Value, newPhone)
	live2, err := b.LiveValue(woc, rec.ID, "phone")
	if err != nil {
		t.Fatal(err)
	}
	if live2 == live {
		t.Fatalf("live value did not change: %q", live2)
	}
	if got := onlyDigitsTest(live2); got != onlyDigitsTest(newPhone) {
		t.Errorf("live = %q, want %q", live2, newPhone)
	}
	// Store still holds the old value (LiveValue is read-only).
	cur, _ := woc.Records.Get(rec.ID)
	if v, _ := cur.Best("phone"); onlyDigitsTest(v.Value) == onlyDigitsTest(newPhone) {
		t.Error("LiveValue mutated the store")
	}
	// Errors: unknown record, unsourced key.
	if _, err := b.LiveValue(woc, "nope", "phone"); err == nil {
		t.Error("unknown record should fail")
	}
	if _, err := b.LiveValue(woc, rec.ID, "nonexistent-attr"); err == nil {
		t.Error("missing attribute should fail")
	}
}

func onlyDigitsTest(s string) string {
	out := []byte{}
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			out = append(out, s[i])
		}
	}
	return string(out)
}
