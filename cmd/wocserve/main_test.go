package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"conceptweb/internal/serving"
	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

var (
	once sync.Once
	tsys *woc.System
	tw   *webgen.World
)

func buildOnce(t *testing.T) {
	t.Helper()
	once.Do(func() {
		cfg := webgen.DefaultConfig()
		cfg.Restaurants = 30
		cfg.ReviewArticles = 10
		cfg.TVArticles = 2
		tw = webgen.Generate(cfg)
		sys, err := woc.Build(tw.Fetch, tw.SeedURLs(),
			woc.WithLocalDomain(tw.Cities(), webgen.Cuisines()))
		if err != nil {
			panic(err)
		}
		tsys = sys
	})
}

func server(t *testing.T) (*webgen.World, *httptest.Server) {
	t.Helper()
	buildOnce(t)
	svc := serving.New(tsys, serving.Options{Metrics: tsys.Metrics()})
	srv := httptest.NewServer(newMux(tsys, svc, nil, 10*time.Second, true, nil))
	t.Cleanup(srv.Close)
	return tw, srv
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, srv := server(t)
	var body struct {
		OK    bool `json:"ok"`
		Stats struct {
			RecordsStored int
		} `json:"stats"`
	}
	if code := getJSON(t, srv, "/healthz", &body); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !body.OK || body.Stats.RecordsStored == 0 {
		t.Errorf("body = %+v", body)
	}
}

func TestSearchEndpoint(t *testing.T) {
	w, srv := server(t)
	var r *webgen.Restaurant
	for _, cand := range w.Restaurants {
		if cand.Homepage != "" {
			r = cand
			break
		}
	}
	var page woc.Page
	q := url.QueryEscape(r.Name + " " + r.City)
	if code := getJSON(t, srv, "/search?q="+q, &page); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if page.Box == nil {
		t.Fatalf("no box for %q", r.Name)
	}
	if page.Box.Phone == "" || len(page.Results) == 0 {
		t.Errorf("page = %+v", page)
	}
	if code := getJSON(t, srv, "/search", nil); code != http.StatusBadRequest {
		t.Errorf("missing q status = %d", code)
	}
}

func TestConceptAndRecordEndpoints(t *testing.T) {
	w, srv := server(t)
	var hits []woc.Hit
	q := url.QueryEscape(w.Restaurants[0].Cuisine + " restaurants")
	if code := getJSON(t, srv, "/concepts?q="+q+"&k=5", &hits); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(hits) == 0 {
		t.Skip("no concept hits for this cuisine")
	}
	id := url.QueryEscape(hits[0].Record.ID)
	var rec woc.Record
	if code := getJSON(t, srv, "/record?id="+id, &rec); code != 200 {
		t.Fatalf("record status = %d", code)
	}
	if rec.Concept != "restaurant" {
		t.Errorf("record = %+v", rec)
	}
	var agg woc.Aggregation
	if code := getJSON(t, srv, "/aggregate?id="+id, &agg); code != 200 || agg.Title == "" {
		t.Errorf("aggregate status=%d agg=%+v", code, agg)
	}
	var lines []string
	if code := getJSON(t, srv, "/lineage?id="+id, &lines); code != 200 || len(lines) == 0 {
		t.Errorf("lineage status=%d lines=%d", code, len(lines))
	}
	var alts []woc.Suggestion
	if code := getJSON(t, srv, "/alternatives?id="+id, &alts); code != 200 {
		t.Errorf("alternatives status=%d", code)
	}
}

func TestNotFoundEndpoints(t *testing.T) {
	_, srv := server(t)
	for _, path := range []string{"/record?id=nope", "/aggregate?id=nope",
		"/lineage?id=nope", "/alternatives?id=nope", "/augmentations?id=nope"} {
		if code := getJSON(t, srv, path, nil); code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, code)
		}
	}
}

// TestErrorBodyIsValidJSON guards the writeJSON fix: error responses must be
// well-formed JSON (the old fmt.Sprintf path double-escaped quotes) and must
// carry the status code set before the body.
func TestErrorBodyIsValidJSON(t *testing.T) {
	_, srv := server(t)
	resp, err := http.Get(srv.URL + `/record?id=no"such"id`)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not valid JSON: %v", err)
	}
	if !strings.Contains(body.Error, `no"such"id`) {
		t.Errorf("error = %q, want the raw id preserved", body.Error)
	}
}

// TestMetricsEndpoint drives traffic through instrumented handlers and
// checks that /metrics reports per-endpoint request counts, status-code
// counters, the in-flight gauge, and latency quantiles.
func TestMetricsEndpoint(t *testing.T) {
	w, srv := server(t)
	q := url.QueryEscape(w.Restaurants[0].Name + " " + w.Restaurants[0].City)
	const n = 5
	for i := 0; i < n; i++ {
		if code := getJSON(t, srv, "/search?q="+q, nil); code != 200 {
			t.Fatalf("search status = %d", code)
		}
	}
	getJSON(t, srv, "/record?id=nope", nil) // one 404 for the status counters

	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
			Max   float64 `json:"max"`
		} `json:"histograms"`
	}
	if code := getJSON(t, srv, "/metrics", &snap); code != 200 {
		t.Fatalf("metrics status = %d", code)
	}
	if got := snap.Counters["http.req.search"]; got < n {
		t.Errorf("http.req.search = %d, want >= %d", got, n)
	}
	if got := snap.Counters["http.status.search.200"]; got < n {
		t.Errorf("http.status.search.200 = %d, want >= %d", got, n)
	}
	if got := snap.Counters["http.status.record.404"]; got < 1 {
		t.Errorf("http.status.record.404 = %d, want >= 1", got)
	}
	if _, ok := snap.Gauges["http.inflight"]; !ok {
		t.Error("missing http.inflight gauge")
	}
	h, ok := snap.Histograms["http.latency.search"]
	if !ok || h.Count < n {
		t.Fatalf("http.latency.search = %+v", h)
	}
	if h.P50 <= 0 || h.P99 < h.P50 || h.Max < h.P99 {
		t.Errorf("latency quantiles inconsistent: %+v", h)
	}
	// The engine's own instruments flow into the same registry. The result
	// cache absorbs repeated identical queries, so the engine computes at
	// least once but need not see all n requests.
	if got := snap.Counters["search.queries"]; got < 1 {
		t.Errorf("search.queries = %d, want >= 1", got)
	}
	if got := snap.Counters["lrec.puts"]; got == 0 {
		t.Error("lrec.puts = 0, want build-time store traffic")
	}
	for _, name := range []string{"build.crawl", "build.extract", "build.resolve",
		"build.link", "build.index"} {
		if h := snap.Histograms[name]; h.Count == 0 {
			t.Errorf("missing pipeline stage histogram %s", name)
		}
	}
}

// slowSource wraps the real system but parks Search on a gate, so tests can
// hold the serving layer's only compute slot for as long as they need.
type slowSource struct {
	*woc.System
	gate chan struct{}
}

func (s *slowSource) Search(q string, k int) *woc.Page {
	<-s.gate
	return s.System.Search(q, k)
}

// TestOverloadSheds503WithRetryAfter saturates a one-slot serving layer and
// asserts the next request is shed quickly with 503 + Retry-After instead of
// queueing behind the stuck computation.
func TestOverloadSheds503WithRetryAfter(t *testing.T) {
	buildOnce(t)
	src := &slowSource{System: tsys, gate: make(chan struct{})}
	svc := serving.New(src, serving.Options{
		CacheSize:   -1, // force every request onto the compute path
		MaxInflight: 1,
		AdmitWait:   30 * time.Millisecond,
		Metrics:     tsys.Metrics(),
	})
	srv := httptest.NewServer(newMux(tsys, svc, nil, 10*time.Second, false, nil))
	defer srv.Close()

	holder := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/search?q=holder")
		if err == nil {
			resp.Body.Close()
		}
		holder <- err
	}()
	// Wait for the holder to occupy the slot: a /record probe sheds only
	// once the slot is taken.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/record?id=probe")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never saturated")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	resp, err := http.Get(srv.URL + "/search?q=shed+me")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("missing Retry-After header on shed response")
	}
	if elapsed > 2*time.Second {
		t.Errorf("shed took %v; must return within the admit wait, not queue", elapsed)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Errorf("shed body not a JSON error: %v %+v", err, body)
	}

	close(src.gate)
	if err := <-holder; err != nil {
		t.Fatalf("holder request failed: %v", err)
	}
	// Capacity restored: requests flow again.
	resp2, err := http.Get(srv.URL + "/search?q=recovered")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-recovery status = %d, want 200", resp2.StatusCode)
	}
}

// TestServingMetricsSurface drives cache traffic and checks the serving
// layer's instruments appear in /metrics.
func TestServingMetricsSurface(t *testing.T) {
	w, srv := server(t)
	q := url.QueryEscape(w.Restaurants[0].Name + " " + w.Restaurants[0].City)
	for i := 0; i < 4; i++ {
		if code := getJSON(t, srv, "/search?q="+q, nil); code != 200 {
			t.Fatalf("search status = %d", code)
		}
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if code := getJSON(t, srv, "/metrics", &snap); code != 200 {
		t.Fatalf("metrics status = %d", code)
	}
	if hits := snap.Counters["serve.hit.search"]; hits < 3 {
		t.Errorf("serve.hit.search = %d, want >= 3", hits)
	}
	if misses := snap.Counters["serve.miss.search"]; misses < 1 {
		t.Errorf("serve.miss.search = %d, want >= 1", misses)
	}
	if _, ok := snap.Gauges["serve.cache.size"]; !ok {
		t.Error("missing serve.cache.size gauge")
	}
	var health struct {
		Epoch uint64 `json:"epoch"`
		Cache int    `json:"cache"`
	}
	if code := getJSON(t, srv, "/healthz", &health); code != 200 {
		t.Fatalf("healthz status = %d", code)
	}
	if health.Epoch == 0 {
		t.Error("healthz epoch = 0, want >= 1 after build")
	}
	if health.Cache == 0 {
		t.Error("healthz cache entries = 0, want cached results")
	}
}

// TestDebugVarsAndPprof: /metrics is the one metrics exposition. The expvar
// endpoint is gone, and the runtime gauges an operator read from its
// memstats are in the snapshot, in both formats.
func TestDebugVarsAndPprof(t *testing.T) {
	_, srv := server(t)
	if code := getJSON(t, srv, "/debug/vars", nil); code != http.StatusNotFound {
		t.Fatalf("debug/vars status = %d, want 404", code)
	}
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if code := getJSON(t, srv, "/metrics", &snap); code != 200 {
		t.Fatalf("metrics status = %d", code)
	}
	for _, g := range []string{"runtime.heap.live_bytes", "runtime.gc.cycles", "runtime.goroutines"} {
		if v, ok := snap.Gauges[g]; !ok || v <= 0 {
			t.Errorf("gauge %s = %d (present %v), want > 0", g, v, ok)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"woc_runtime_heap_live_bytes ", "woc_runtime_gc_cycles ", "woc_runtime_goroutines "} {
		if !strings.Contains(string(text), "\n"+g) {
			t.Errorf("prometheus exposition lacks %s", g)
		}
	}
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
}
