package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// TestWritePrometheusGolden pins the full text exposition against a golden
// file: counters, gauges, histogram le-buckets with +Inf, and windowed
// quantile gauges. Regenerate with: go test ./internal/obs -run Golden -update-golden
func TestWritePrometheusGolden(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry()
	r.Counter("serve.hit.search").Add(42)
	r.Counter("http.req.search").Add(50)
	r.Gauge("http.inflight").Set(3)
	// Gauges whose names hold numeric segments.
	r.Gauge("store.shard.0.wal_bytes").Set(4096)
	r.Gauge("store.shard.1.wal_bytes").Set(8192)
	r.Gauge("index.shard.0.postings").Set(1234)
	r.Gauge("index.shard.1.postings").Set(567)
	h := r.HistogramWith("http.latency.search", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 2} {
		h.Observe(v)
	}

	// Per-query index work, as published by the search engine: counts, not
	// seconds, on power-of-four buckets.
	work := []float64{1, 4, 16, 64, 256, 1024, 4096}
	touched := r.HistogramWith("index.search.touched", work)
	postings := r.HistogramWith("index.search.postings", work)
	for _, q := range [][2]float64{{0, 0}, {3, 5}, {812, 1490}, {2100, 5300}} {
		touched.Observe(q[0])
		postings.Observe(q[1])
	}

	// Windowed instruments on a fake clock so the exposition is stable.
	w := NewWindowedHistogram([]float64{0.001, 0.01, 0.1}, time.Second, 4, clk.Now)
	for _, v := range []float64{0.002, 0.004, 0.09} {
		w.Observe(v)
	}
	wc := NewWindowedCounter(time.Second, 4, clk.Now)
	wc.Add(8)
	r.mu.Lock()
	r.whists["http.window.search"] = w
	r.wctrs["http.window.err.search"] = wc
	r.mu.Unlock()

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "metrics.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("prometheus exposition drifted from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"serve.hit.search":       "woc_serve_hit_search",
		"http.status.search.200": "woc_http_status_search_200",
		"a-b c/d":                "woc_a_b_c_d",
		"ok_name:sub":            "woc_ok_name:sub",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
