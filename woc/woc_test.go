package woc

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

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

// buildDir writes a small default world into dir as `wocbuild -out dir`
// does and returns the restaurant records the build stored.
func buildDir(t *testing.T, dir string) []*lrec.Record {
	t.Helper()
	built, err := BuildDir(dir, Manifest{Profile: "default", Seed: 3, Size: 15}, nil)
	if err != nil {
		t.Fatal(err)
	}
	restaurants := built.Records.ByConcept("restaurant")
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	return restaurants
}

// TestOpenReopensWrittenDirectory: Open refuses a directory without a
// manifest — a build that did not finish — and otherwise serves the records
// the build wrote, with the manifest's world behind Refresh.
func TestOpenReopensWrittenDirectory(t *testing.T) {
	dir := t.TempDir()
	want := buildDir(t, dir)
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
	buildDir(t, dir)
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

// TestOpenRefusesShardedDirectory: a system directory whose records/ the
// hash-sharded store of earlier builds wrote (lrec.manifest beside
// lrec-NN.wal) does not open as an empty system: Open returns the store's
// rebuild error.
func TestOpenRefusesShardedDirectory(t *testing.T) {
	dir := t.TempDir()
	records := filepath.Join(dir, "records")
	files := map[string]string{
		manifestName: `{"profile":"default","seed":1,"size":50,"cities":["Cupertino"],"cuisines":["thai"]}`,
		filepath.Join("records", "lrec.manifest"): "lrec manifest v1\nshards 4\n",
		filepath.Join("records", "lrec-00.wal"):   "",
	}
	if err := os.MkdirAll(records, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := Open(dir)
	if err == nil {
		sys.Close()
		t.Fatal("a directory with a sharded store opened")
	}
	if msg := err.Error(); !strings.Contains(msg, records) || !strings.Contains(msg, "wocbuild -out") {
		t.Errorf("error %q does not name the store directory and the rebuild", msg)
	}
	if _, err := os.Stat(filepath.Join(records, "lrec.log")); !os.IsNotExist(err) {
		t.Errorf("the refused Open created an empty store (stat err = %v)", err)
	}
}

// menuWorld is the 50-restaurant default world the menu tests edit.
func menuWorld() *webgen.World {
	wc := webgen.DefaultConfig()
	wc.Seed, wc.Restaurants = 1, 50
	return webgen.Generate(wc)
}

// editPage replaces the page at url in w with edit's rewrite of it.
func editPage(t *testing.T, w *webgen.World, url string, edit func(string) string) {
	t.Helper()
	p, ok := w.PageByURL(url)
	if !ok {
		t.Fatalf("no page %s in the world", url)
	}
	html := edit(p.HTML)
	if html == p.HTML {
		t.Fatalf("the edit left %s unchanged", url)
	}
	p.HTML = html
}

// menus maps every restaurant record of sys to its menu values, checking
// that none holds two.
func menus(t *testing.T, sys *System) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, r := range sys.woc.Records.ViewByConcept("restaurant") {
		if n := len(r.All("menu")); n > 1 {
			t.Errorf("%s holds %d menus", r.ID, n)
		}
		out[r.ID] = r.Get("menu")
	}
	return out
}

// checkMenusLikeBuild compares every restaurant's menu in sys with the one
// a fresh Build over w's pages stores.
func checkMenusLikeBuild(t *testing.T, sys *System, w *webgen.World) {
	t.Helper()
	fresh, err := Build(w.Fetch, w.SeedURLs(), WithLocalDomain(w.Cities(), webgen.Cuisines()))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	got, want := menus(t, sys), menus(t, fresh)
	if len(got) != len(want) {
		t.Errorf("%d restaurants, a fresh build stores %d", len(got), len(want))
	}
	for id, m := range want {
		if got[id] != m {
			t.Errorf("%s: menu %q, a fresh build has %q", id, got[id], m)
		}
	}
}

// refreshMenuScenario edits one page of the 50-restaurant world under a
// System, refreshes it, and holds every restaurant's menu to a fresh
// Build's over the edited pages. It does so for a System from Build and for
// one Open reopens from a directory, which it then reopens again: a second
// Open adds no menu.
func refreshMenuScenario(t *testing.T, url string, edit func(string) string, check func(*testing.T, *System)) {
	t.Run("Build", func(t *testing.T) {
		w := menuWorld()
		sys, err := Build(w.Fetch, w.SeedURLs(), WithLocalDomain(w.Cities(), webgen.Cuisines()))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		editPage(t, w, url, edit)
		if st, err := sys.Refresh([]string{url}); err != nil || st.PagesChanged != 1 {
			t.Fatalf("refresh of %s: %+v, %v", url, st, err)
		}
		check(t, sys)
		checkMenusLikeBuild(t, sys, w)
	})
	t.Run("Open", func(t *testing.T) {
		dir := t.TempDir()
		built, err := BuildDir(dir, Manifest{Profile: "default", Seed: 1, Size: 50}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := built.Close(); err != nil {
			t.Fatal(err)
		}
		sys, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		w := menuWorld()
		sys.builder.Fetcher = w // the manifest's world, edited below
		editPage(t, w, url, edit)
		if st, err := sys.Refresh([]string{url}); err != nil || st.PagesChanged != 1 {
			sys.Close()
			t.Fatalf("refresh of %s: %+v, %v", url, st, err)
		}
		check(t, sys)
		refreshed := menus(t, sys)
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		if got := menus(t, again); !reflect.DeepEqual(got, refreshed) {
			t.Errorf("menus after a reopen differ from the refreshed system's")
		}
		checkMenusLikeBuild(t, again, w)
	})
}

const blueBarrel = "restaurant:bluebarrel:4085550107"

// TestRefreshOfAggregatorPageKeepsMenus: an edit to an aggregator page
// listing a restaurant rebuilds its record; the rebuilt record gets its menu
// back, and "<name> menu" is answered from it.
func TestRefreshOfAggregatorPageKeepsMenus(t *testing.T) {
	refreshMenuScenario(t, "citysift.example/c/palo-alto-american",
		func(html string) string { return webgen.EditText(html, "Patio seating now open.") },
		func(t *testing.T, sys *System) {
			r, err := sys.Record(blueBarrel)
			if err != nil || r.Attrs["menu"] == "" {
				t.Fatalf("%s after the refresh: %+v, %v; want a menu", blueBarrel, r, err)
			}
			page := sys.Search("Blue Barrel Steakhouse menu", 5)
			if page.Box == nil || page.Box.RequestedKey != "menu" || page.Box.RequestedValue != r.Attrs["menu"] {
				t.Errorf("menu query after the refresh: box %+v, want the requested menu %q", page.Box, r.Attrs["menu"])
			}
		})
}

// TestRefreshOfMenuPageRenamesDish: renaming a dish on a restaurant's menu
// page shows in its record's menu after the refresh.
func TestRefreshOfMenuPageRenamesDish(t *testing.T) {
	const url, open, close = "blue-barrel-steakhouse.example/food", `<span class="dish-name">`, "</span>"
	var dish string
	rename := func(html string) string {
		i := strings.Index(html, open) + len(open)
		j := i + strings.Index(html[i:], close)
		if i < len(open) || j < i {
			return html
		}
		dish = html[i:j]
		return html[:i] + "Zzyzx Platter" + html[j:]
	}
	refreshMenuScenario(t, url, rename,
		func(t *testing.T, sys *System) {
			r, err := sys.Record(blueBarrel)
			if err != nil || !strings.Contains(r.Attrs["menu"], "Zzyzx Platter") || strings.Contains(r.Attrs["menu"], dish) {
				t.Errorf("%s after the refresh: menu %q, want %q renamed to Zzyzx Platter", blueBarrel, r.Attrs["menu"], dish)
			}
		})
}
