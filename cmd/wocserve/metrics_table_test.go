package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"conceptweb/internal/maintain"
	"conceptweb/internal/serving"
	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

// endpoints are the instrumented wocserve endpoints, as metric names spell
// them.
var endpoints = []string{"healthz", "search", "concepts", "record", "aggregate", "alternatives", "augmentations", "lineage"}

// TestMetricNamesMatchDesignTable drives a durable system through a build,
// one maintenance pass that changes a page, and one request to every
// wocserve endpoint (two to /search: a box, then a cache hit), and holds the names its registry then holds to the metric table
// of DESIGN.md §6: every registered name is in the table, and every row not
// marked "when it happens" was registered. Endpoint names and status codes
// read as <endpoint> and <code>.
func TestMetricNamesMatchDesignTable(t *testing.T) {
	always, onEvent := designMetricTable(t)

	cfg := webgen.DefaultConfig()
	cfg.Restaurants, cfg.ReviewArticles, cfg.TVArticles = 15, 4, 2
	w := webgen.Generate(cfg)
	sys, err := woc.Build(w.Fetch, w.SeedURLs(), woc.WithLocalDomain(w.Cities(), webgen.Cuisines()),
		woc.WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var rec woc.Record
	for _, r := range sys.Records("restaurant") {
		if sys.Search(r.Attrs["name"]+" "+r.Attrs["city"], 1).Box != nil {
			rec = r
			break
		}
	}
	page := sys.PagesAbout(rec.ID)[0]
	p, _ := w.PageByURL(page)
	p.HTML = webgen.EditText(p.HTML, "Patio seating now open.")
	loop := maintain.NewLoop(sys, maintain.Options{Batch: len(sys.PageURLs()),
		ReconcileConcepts: []string{"restaurant"}, Metrics: sys.Metrics()})
	if st, err := loop.RunPass(); err != nil || st.PagesChanged != 1 {
		t.Fatalf("maintenance pass: %+v, %v", st, err)
	}

	svc := serving.New(sys, serving.Options{Metrics: sys.Metrics()})
	srv := httptest.NewServer(newMux(sys, svc, loop, 10*time.Second, false, nil))
	defer srv.Close()
	id, box := url.QueryEscape(rec.ID), "/search?q="+url.QueryEscape(rec.Attrs["name"]+" "+rec.Attrs["city"])
	for _, path := range []string{"/healthz", box, box, "/concepts?q=pizza", "/record?id=" + id, "/aggregate?id=" + id, "/alternatives?id=" + id,
		"/augmentations?id=" + id, "/lineage?id=" + id, "/metrics", "/debug/slowlog", "/debug/maintain"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}

	snap := sys.Metrics().Snapshot()
	registered := map[string]bool{}
	for _, names := range []map[string]bool{keys(snap.Counters), keys(snap.Gauges), keys(snap.Histograms),
		keys(snap.Windowed), keys(snap.WindowedCounters)} {
		for name := range names {
			registered[placeholders(name)] = true
		}
	}
	for _, name := range sorted(registered) {
		if !always[name] && !onEvent[name] {
			t.Errorf("%s is registered but not in DESIGN.md §6's table", name)
		}
	}
	for _, name := range sorted(always) {
		if !registered[name] {
			t.Errorf("DESIGN.md §6's table has %s, which the run did not register", name)
		}
	}
}

func keys[V any](m map[string]V) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var statusCode = regexp.MustCompile(`\.[0-9]{3}$`)

// placeholders writes a registered name the way the table does: the
// HTTP and serving layers' per-endpoint families with <endpoint>.
func placeholders(name string) string {
	name = statusCode.ReplaceAllString(name, ".<code>")
	if !strings.HasPrefix(name, "http.") && !strings.HasPrefix(name, "serve.") {
		return name
	}
	parts := strings.Split(name, ".")
	for i, p := range parts {
		if slices.Contains(endpoints, p) {
			parts[i] = "<endpoint>"
		}
	}
	return strings.Join(parts, ".")
}

// designMetricTable reads the metric names out of the tables of DESIGN.md
// §6: every backticked name in a row's first cell. Rows whose last cell
// says "when it happens" name instruments registered only on that event.
func designMetricTable(t *testing.T) (always, onEvent map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 6. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §6")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	always, onEvent = map[string]bool{}, map[string]bool{}
	name := regexp.MustCompile("`([a-z][a-z0-9_<>]*(?:\\.[a-z0-9_<>]+)+)`")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(line, "|") {
			continue
		}
		into := always
		if strings.Contains(cells[len(cells)-2], "when it happens") {
			into = onEvent
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			into[m[1]] = true
		}
	}
	if len(always) == 0 {
		t.Fatal("no metric names in DESIGN.md §6's tables")
	}
	return always, onEvent
}
