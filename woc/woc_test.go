package woc

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

var (
	once sync.Once
	tsys *System
	tw   *webgen.World
)

// TestMain closes the shared system when the package's tests are done,
// which removes its temporary page store.
func TestMain(m *testing.M) {
	code := m.Run()
	if tsys != nil {
		tsys.Close()
	}
	os.Exit(code)
}

func system(t *testing.T) (*webgen.World, *System) {
	t.Helper()
	once.Do(func() {
		cfg := webgen.DefaultConfig()
		cfg.Restaurants = 50
		cfg.ReviewArticles = 20
		cfg.TVArticles = 4
		w := webgen.Generate(cfg)
		sys, err := Build(w.Fetch, w.SeedURLs(),
			WithLocalDomain(w.Cities(), webgen.Cuisines()))
		if err != nil {
			panic(err)
		}
		tw, tsys = w, sys
	})
	return tw, tsys
}

func pickRestaurant(t *testing.T) (*webgen.Restaurant, Record) {
	w, sys := system(t)
	for _, r := range w.Restaurants {
		if r.Homepage == "" {
			continue
		}
		for _, rec := range sys.Records("restaurant") {
			if rec.Attrs["phone"] == r.Phone && rec.Attrs["homepage"] != "" {
				return r, rec
			}
		}
	}
	t.Fatal("no suitable restaurant")
	return nil, Record{}
}

func TestBuildStats(t *testing.T) {
	_, sys := system(t)
	st := sys.Stats()
	if st.PagesFetched == 0 || st.RecordsStored == 0 || st.Candidates == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFacadeSearch(t *testing.T) {
	r, rec := pickRestaurant(t)
	_, sys := system(t)
	page := sys.Search(r.Name+" "+r.City, 5)
	if page.Box == nil {
		t.Fatalf("no box for %q", r.Name)
	}
	if page.Box.Record.ID != rec.ID {
		t.Errorf("box record %s, want %s", page.Box.Record.ID, rec.ID)
	}
	if len(page.Results) == 0 || !page.Results[0].IsHomepage {
		t.Error("homepage not first")
	}
	if len(page.Assistance) == 0 {
		t.Error("no assistance")
	}
}

func TestFacadeConceptSearchAndRecord(t *testing.T) {
	r, rec := pickRestaurant(t)
	_, sys := system(t)
	hits := sys.ConceptSearch(r.Cuisine+" "+strings.ToLower(r.City), 10)
	if len(hits) == 0 {
		t.Fatal("no concept hits")
	}
	got, err := sys.Record(rec.ID)
	if err != nil || got.Concept != "restaurant" {
		t.Fatalf("record = %+v, %v", got, err)
	}
	if _, err := sys.Record("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestFacadeAggregateAndLineage(t *testing.T) {
	_, rec := pickRestaurant(t)
	_, sys := system(t)
	agg, err := sys.Aggregate(rec.ID)
	if err != nil || agg.Title == "" || len(agg.Sources) == 0 {
		t.Fatalf("agg = %+v, %v", agg, err)
	}
	lines, err := sys.Lineage(rec.ID)
	if err != nil || len(lines) == 0 {
		t.Fatalf("lineage = %v, %v", lines, err)
	}
	if _, err := sys.Aggregate("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestFacadeRecommendations(t *testing.T) {
	_, rec := pickRestaurant(t)
	_, sys := system(t)
	if _, err := sys.Alternatives(rec.ID, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Augmentations(rec.ID, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Alternatives("nope", 5); !errors.Is(err, ErrNotFound) {
		t.Error("missing-id alternatives should fail")
	}
}

func TestFacadeLinks(t *testing.T) {
	_, rec := pickRestaurant(t)
	_, sys := system(t)
	pages := sys.PagesAbout(rec.ID)
	if len(pages) == 0 {
		t.Fatal("no pages about record")
	}
	back := sys.RecordsOn(pages[0])
	found := false
	for _, id := range back {
		if id == rec.ID {
			found = true
		}
	}
	if !found {
		t.Error("assoc not symmetric")
	}
}

func TestFacadeRefresh(t *testing.T) {
	_, sys := system(t)
	urls := sys.PagesAbout(sys.Records("restaurant")[0].ID)
	if len(urls) == 0 {
		t.Skip("no pages")
	}
	st, err := sys.Refresh(urls[:1])
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesChecked != 1 || st.PagesUnchanged != 1 {
		t.Errorf("refresh = %+v", st)
	}
}

func TestFacadeReconcile(t *testing.T) {
	_, sys := system(t)
	// Already reconciled once at Build; a second pass is a no-op.
	if n := sys.Reconcile("restaurant"); n != 0 {
		t.Errorf("second reconcile changed %d records", n)
	}
}

func TestDurableBuild(t *testing.T) {
	dir := t.TempDir()
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 15
	cfg.ReviewArticles = 4
	cfg.TVArticles = 2
	w := webgen.Generate(cfg)
	sys, err := Build(w.Fetch, w.SeedURLs(),
		WithLocalDomain(w.Cities(), webgen.Cuisines()),
		WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	n := len(sys.Records("restaurant"))
	if n == 0 {
		t.Fatal("no records")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// The store survives the process: reopen it directly.
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	st, err := lrec.Open(dir, lrec.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.CountByConcept("restaurant"); got != n {
		t.Errorf("reopened store has %d restaurants, want %d", got, n)
	}
}

// TestStoreHealthSurfacesRecovery: a crash mid-append (torn log tail) must
// be visible through the facade after the next durable build, and a healthy
// system must report a clean bill.
func TestStoreHealthSurfacesRecovery(t *testing.T) {
	_, sys := system(t)
	if h := sys.StoreHealth(); h.Degraded != "" || h.TornTailRepaired {
		t.Errorf("health of a system without a directory = %+v, want clean", h)
	}

	dir := t.TempDir()
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 15
	cfg.ReviewArticles = 4
	cfg.TVArticles = 2
	w := webgen.Generate(cfg)
	opts := []Option{WithLocalDomain(w.Cities(), webgen.Cuisines()), WithStoreDir(dir)}
	sys1, err := Build(w.Fetch, w.SeedURLs(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash simulation: tear the final log frame.
	logPath := filepath.Join(dir, "lrec.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	sys2, err := Build(w.Fetch, w.SeedURLs(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	h := sys2.StoreHealth()
	if !h.TornTailRepaired || h.TruncatedBytes == 0 {
		t.Errorf("health after torn tail = %+v, want repaired tail", h)
	}
	if h.Degraded != "" {
		t.Errorf("health degraded = %q, want healthy", h.Degraded)
	}
	if h.LogFrames == 0 {
		t.Errorf("health = %+v, want replayed log frames", h)
	}
}

func TestBuildMaxPages(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 15
	cfg.ReviewArticles = 4
	cfg.TVArticles = 2
	w := webgen.Generate(cfg)
	sys, err := Build(w.Fetch, w.SeedURLs(),
		WithLocalDomain(w.Cities(), webgen.Cuisines()), WithMaxPages(50))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got := sys.Stats().PagesFetched; got > 50 {
		t.Errorf("fetched %d pages, cap was 50", got)
	}
}

func TestFacadeSearchWithinAndRelated(t *testing.T) {
	r, rec := pickRestaurant(t)
	_, sys := system(t)
	docs := sys.SearchWithin(rec.ID, r.Menu[0], 5)
	if len(docs) == 0 {
		t.Skipf("no in-concept docs for %q", r.Menu[0])
	}
	pages := sys.PagesAbout(rec.ID)
	member := map[string]bool{}
	for _, u := range pages {
		member[u] = true
	}
	for _, d := range docs {
		if !member[d.URL] {
			t.Errorf("result %s outside the concept", d.URL)
		}
	}
	if len(pages) > 0 {
		rel := sys.Related(pages[0], 3)
		if len(rel) == 0 {
			t.Error("no related pages")
		}
	}
}

func TestFacadeCategories(t *testing.T) {
	_, sys := system(t)
	cats := sys.Categories("restaurant", 8, "cuisine", "menu")
	if len(cats) < 4 {
		t.Fatalf("only %d categories", len(cats))
	}
	seen := map[string]bool{}
	for name, members := range cats {
		if name == "restaurant" {
			t.Error("root leaked into categories")
		}
		for _, id := range members {
			if seen[id] {
				t.Errorf("record %s in two categories", id)
			}
			seen[id] = true
			if _, err := sys.Record(id); err != nil {
				t.Errorf("category member %s not a record", id)
			}
		}
	}
}

// writeDir builds a small default world into dir as `wocbuild -out dir`
// does: pages in dir/pages, records saved into dir/records, manifest last.
// It returns the restaurant records the build stored.
func writeDir(t *testing.T, dir string) []*lrec.Record {
	t.Helper()
	wc := webgen.DefaultConfig()
	wc.Seed, wc.Restaurants = 3, 15
	w := webgen.Generate(wc)
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	cfg := core.StandardConfig(reg, w.Cities(), webgen.Cuisines())
	ps, err := webgraph.OpenDiskStore(filepath.Join(dir, "pages"), webgraph.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.PageStore = ps
	built, _, err := (&core.Builder{Fetcher: w, Cfg: cfg}).Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	built.Reconcile("restaurant", core.PreferSupport)
	restaurants := built.Records.ByConcept("restaurant")
	if _, err := built.SaveRecords(filepath.Join(dir, "records"), 0); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	m := Manifest{Profile: "default", Seed: wc.Seed, Size: wc.Restaurants, Cities: w.Cities(), Cuisines: webgen.Cuisines()}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	return restaurants
}

// TestOpenReopensWrittenDirectory: Open refuses a directory without a
// manifest — a build that did not finish — and otherwise serves the records
// the build wrote, with the manifest's world behind Refresh.
func TestOpenReopensWrittenDirectory(t *testing.T) {
	dir := t.TempDir()
	want := writeDir(t, dir)
	manifest := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	if sys, err := Open(dir); err == nil {
		sys.Close()
		t.Fatal("Open of a directory without a manifest succeeded")
	}
	if err := os.WriteFile(manifest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	sys, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.Records("restaurant")
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("reopened %d restaurants, the build stored %d", len(got), len(want))
	}
	for i, r := range want {
		if got[i].ID != r.ID || got[i].Attrs["name"] != r.Get("name") {
			t.Fatalf("restaurant %d: reopened %s %q, stored %s %q", i, got[i].ID, got[i].Attrs["name"], r.ID, r.Get("name"))
		}
	}
	if page := sys.Search(want[0].Get("name"), 5); len(page.Results) == 0 {
		t.Errorf("search for %q over the reopened system found nothing", want[0].Get("name"))
	}
	// The build left the menus to Open, as Build adds them after the
	// pipeline: "<name> menu" is answered from the record.
	menuQuery := func(sys *System) (string, *Page) {
		for _, r := range sys.Records("restaurant") {
			if r.Attrs["menu"] != "" {
				return r.Attrs["menu"], sys.Search(r.Attrs["name"]+" menu", 5)
			}
		}
		return "", nil
	}
	menu, page := menuQuery(sys)
	if page == nil {
		t.Fatal("no reopened restaurant has a menu")
	}
	if page.Box == nil || page.Box.RequestedKey != "menu" || page.Box.RequestedValue != menu {
		t.Errorf("menu query over the reopened system: box %+v, want the requested menu %q", page.Box, menu)
	}
	// The manifest names the world the pages came from: refetched, they
	// are all unchanged.
	urls := sys.PageURLs()[:20]
	st, err := sys.Refresh(urls)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesUnchanged != len(urls) {
		t.Errorf("refresh over the manifest's world: %+v, want %d unchanged", st, len(urls))
	}

	// A second Open finds the menus stored and adds none again.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got, _ := menuQuery(again); got != menu {
		t.Errorf("menu after a second open = %q, want %q", got, menu)
	}
	for _, r := range again.woc.Records.ByConcept("restaurant") {
		if n := len(r.All("menu")); n > 1 {
			t.Errorf("%s holds %d menus after a second open", r.ID, n)
		}
	}
}

// TestStoreHealthCoversPageStore: a torn page segment repaired on open shows
// as a repaired tail, and a latched page store as Degraded.
func TestStoreHealthCoversPageStore(t *testing.T) {
	dir := t.TempDir()
	writeDir(t, dir)
	seg := filepath.Join(dir, "pages", "pages-0000.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x2a, 0, 0, 0, 7}) // a frame header cut short: a crash mid-append
	f.Close()

	sys, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if h := sys.StoreHealth(); !h.TornTailRepaired || h.TruncatedBytes != 5 || h.Degraded != "" {
		t.Errorf("health after a torn page segment = %+v, want a repaired 5-byte tail", h)
	}

	// Swap in a page store whose next write fails, and make it fail.
	latchDir := t.TempDir()
	latched, err := webgraph.OpenDiskStore(latchDir, webgraph.DiskOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer latched.Close()
	os.RemoveAll(latchDir)
	latched.PutRaw("x.example/", "<html></html>")
	pages := sys.woc.Pages
	sys.woc.Pages = latched
	h := sys.StoreHealth()
	sys.woc.Pages = pages
	if h.Degraded == "" || !strings.Contains(h.Degraded, "latched") {
		t.Errorf("health with a latched page store = %+v, want Degraded", h)
	}
}
