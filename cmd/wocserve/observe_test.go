package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"conceptweb/internal/maintain"
	"conceptweb/internal/serving"
)

// TestTraceHeadersAndDebugTrace follows a request's trace end to end: the
// response carries X-Woc-Trace and X-Woc-Cache, and the ID resolves at
// /debug/trace with the serving-layer annotations attached.
func TestTraceHeadersAndDebugTrace(t *testing.T) {
	w, srv := server(t)
	q := url.QueryEscape(w.Restaurants[0].Name + " trace probe")

	get := func() *http.Response {
		resp, err := http.Get(srv.URL + "/search?q=" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}

	first := get()
	id := first.Header.Get("X-Woc-Trace")
	if !strings.HasPrefix(id, "woc-") {
		t.Fatalf("X-Woc-Trace = %q, want woc-… ID", id)
	}
	if disp := first.Header.Get("X-Woc-Cache"); disp != "miss" && disp != "coalesced" {
		t.Errorf("first X-Woc-Cache = %q, want miss (cold cache)", disp)
	}
	second := get()
	if disp := second.Header.Get("X-Woc-Cache"); disp != "hit" {
		t.Errorf("second X-Woc-Cache = %q, want hit", disp)
	}
	if second.Header.Get("X-Woc-Trace") == id {
		t.Error("trace IDs not unique across requests")
	}

	var tr serving.Trace
	if code := getJSON(t, srv, "/debug/trace?id="+id, &tr); code != 200 {
		t.Fatalf("debug/trace status = %d", code)
	}
	if tr.ID != id || tr.Endpoint != "search" {
		t.Errorf("trace = %+v, want id %s endpoint search", tr, id)
	}
	if tr.Disposition == serving.DispositionNone || tr.Status != 200 || tr.Total <= 0 {
		t.Errorf("trace missing annotations: %+v", tr)
	}
	if tr.Arg == "" || tr.Epoch == 0 {
		t.Errorf("trace arg/epoch not annotated: %+v", tr)
	}

	if code := getJSON(t, srv, "/debug/trace?id=woc-00000000-00000000", nil); code != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", code)
	}
	if code := getJSON(t, srv, "/debug/trace", nil); code != http.StatusBadRequest {
		t.Errorf("missing id status = %d, want 400", code)
	}
}

// TestSlowlogEndpoint drives traffic and checks /debug/slowlog retains the
// slowest traces per endpoint, slowest first, with annotations.
func TestSlowlogEndpoint(t *testing.T) {
	w, srv := server(t)
	for i, r := range w.Restaurants {
		if i >= 5 {
			break
		}
		getJSON(t, srv, "/search?q="+url.QueryEscape(r.Name), nil)
	}
	var slow map[string][]serving.Trace
	if code := getJSON(t, srv, "/debug/slowlog", &slow); code != 200 {
		t.Fatalf("slowlog status = %d", code)
	}
	entries := slow["search"]
	if len(entries) == 0 {
		t.Fatal("slowlog has no search entries after traffic")
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Total > entries[i-1].Total {
			t.Errorf("slowlog not slowest-first: [%d]=%v > [%d]=%v",
				i, entries[i].Total, i-1, entries[i-1].Total)
		}
	}
	if e := entries[0]; e.ID == "" || e.Status != 200 || e.Disposition == serving.DispositionNone {
		t.Errorf("slowlog entry missing annotations: %+v", e)
	}
}

// TestMetricsPrometheusFormat checks ?format=prometheus serves text
// exposition with the per-endpoint families and rolling-window gauges.
func TestMetricsPrometheusFormat(t *testing.T) {
	w, srv := server(t)
	getJSON(t, srv, "/search?q="+url.QueryEscape(w.Restaurants[0].Name), nil)

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q, want text/plain exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"woc_http_req_search_total ",
		`woc_http_latency_search_bucket{le="+Inf"}`,
		"woc_http_latency_search_count ",
		"woc_http_window_search_window_p99 ",
		"# TYPE woc_http_req_search_total counter",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestWindowedMetricsInSnapshot checks the JSON /metrics snapshot carries the
// per-endpoint rolling windows next to the cumulative histograms.
func TestWindowedMetricsInSnapshot(t *testing.T) {
	w, srv := server(t)
	getJSON(t, srv, "/search?q="+url.QueryEscape(w.Restaurants[0].Name), nil)

	var snap struct {
		Windowed map[string]struct {
			Count int64   `json:"count"`
			P99   float64 `json:"p99"`
		} `json:"windowed"`
		WindowedCounters map[string]struct {
			Count int64 `json:"count"`
		} `json:"windowed_counters"`
	}
	if code := getJSON(t, srv, "/metrics", &snap); code != 200 {
		t.Fatalf("metrics status = %d", code)
	}
	if win := snap.Windowed["http.window.search"]; win.Count < 1 {
		t.Errorf("http.window.search rolling window = %+v, want observations", win)
	}
	// The err/shed windows exist (zero) as soon as the endpoint is wired.
	if _, ok := snap.WindowedCounters["http.window.err.search"]; !ok {
		t.Error("missing http.window.err.search rolling counter")
	}
	if _, ok := snap.WindowedCounters["http.window.shed.search"]; !ok {
		t.Error("missing http.window.shed.search rolling counter")
	}
}

// TestAccessLogSampling unit-tests the sampler: rate 1 logs every request as
// parseable one-line JSON; rate 0.5 logs every 2nd; the disabled logger is
// nil and its hot path allocates nothing.
func TestAccessLogSampling(t *testing.T) {
	tr := serving.NewTrace("search")
	tr.Finish(200, 3*time.Millisecond, nil)

	var buf bytes.Buffer
	all := newAccessLog(1, &buf)
	for i := 0; i < 3; i++ {
		all.log(tr)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("rate 1 logged %d lines, want 3", len(lines))
	}
	var rec accessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access line not JSON: %v", err)
	}
	if rec.Trace != tr.ID || rec.Endpoint != "search" || rec.Status != 200 || rec.MS != 3 {
		t.Errorf("access record = %+v", rec)
	}

	buf.Reset()
	half := newAccessLog(0.5, &buf)
	for i := 0; i < 10; i++ {
		half.log(tr)
	}
	if got := strings.Count(buf.String(), "\n"); got != 5 {
		t.Errorf("rate 0.5 logged %d of 10", got)
	}

	if off := newAccessLog(0, &buf); off != nil {
		t.Fatal("rate 0 should disable the logger entirely")
	}
}

// TestAccessLogDisabledZeroAlloc pins the ISSUE 6 requirement: with sampling
// off (nil logger), the access-log call on the request hot path allocates
// nothing.
func TestAccessLogDisabledZeroAlloc(t *testing.T) {
	tr := serving.NewTrace("search")
	tr.Finish(200, time.Millisecond, nil)
	var off *accessLog
	if n := testing.AllocsPerRun(1000, func() { off.log(tr) }); n != 0 {
		t.Errorf("disabled access log allocates %v per call, want 0", n)
	}
}

// TestDebugMaintainEndpoint covers both shapes of /debug/maintain: the
// disabled stub when no loop runs, and the live status snapshot when one
// does.
func TestDebugMaintainEndpoint(t *testing.T) {
	_, srv := server(t) // no loop wired
	var off struct {
		Enabled bool `json:"enabled"`
	}
	if code := getJSON(t, srv, "/debug/maintain", &off); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if off.Enabled {
		t.Fatal("loopless server reports maintenance enabled")
	}

	loop := maintain.NewLoop(tsys, maintain.Options{Batch: 4, Metrics: tsys.Metrics()})
	if _, err := loop.RunPass(); err != nil {
		t.Fatal(err)
	}
	svc := serving.New(tsys, serving.Options{Metrics: tsys.Metrics()})
	srv2 := httptest.NewServer(newMux(tsys, svc, loop, 10*time.Second, false, nil))
	defer srv2.Close()
	var on struct {
		Enabled bool   `json:"enabled"`
		Epoch   uint64 `json:"epoch"`
		Status  struct {
			Passes    uint64 `json:"Passes"`
			LastStats struct {
				PagesChecked int `json:"PagesChecked"`
			} `json:"LastStats"`
		} `json:"status"`
	}
	if code := getJSON(t, srv2, "/debug/maintain", &on); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !on.Enabled || on.Status.Passes != 1 || on.Status.LastStats.PagesChecked != 4 {
		t.Fatalf("unexpected maintain status: %+v", on)
	}
}
