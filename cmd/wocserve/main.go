// Command wocserve -data DIR reopens the system `wocbuild -out DIR` wrote
// and serves it over HTTP as JSON — the "next generation of search engines":
//
//	GET /search?q=...&k=8        web search with concept box
//	GET /concepts?q=...&k=8      concept search
//	GET /record?id=...           one record
//	GET /aggregate?id=...        aggregation page
//	GET /alternatives?id=...     substitute recommendations
//	GET /augmentations?id=...    complement recommendations
//	GET /lineage?id=...          provenance explanation
//	GET /healthz                 liveness, with the directory's manifest
//	GET /metrics                 JSON metrics snapshot (counters, gauges,
//	                             per-endpoint latency histograms, rolling
//	                             per-endpoint windows, runtime heap/GC/
//	                             goroutine gauges); ?format=prometheus
//	                             serves the same snapshot as Prometheus text
//	GET /debug/slowlog           per-endpoint top-K slowest traces
//	GET /debug/trace?id=...      one recent trace by X-Woc-Trace ID
//	GET /debug/maintain          maintenance-loop status (passes, sweeps,
//	                             the last pass's RefreshStats)
//	GET /debug/pprof/...         CPU/heap/goroutine profiling (with -pprof)
//
// Every request is traced: the response carries X-Woc-Trace (the trace ID,
// resolvable at /debug/trace while it is among the last -trace-ring
// requests) and X-Woc-Cache (hit/miss/coalesced/shed) headers, and the
// slowest -slowlog-k requests per endpoint are retained with their full
// annotations at /debug/slowlog. With -log-sample > 0, that fraction of
// requests is emitted as one-line JSON access records on stderr.
//
// Requests flow through the serving layer (internal/serving): a sharded
// LRU+TTL result cache keyed by (endpoint, normalized query, epoch) — one
// Refresh invalidates everything in O(1) — singleflight coalescing of
// identical cache misses, and admission control that sheds overload with
// 503 + Retry-After instead of queueing unboundedly. Tune it with
// -cache-size, -cache-ttl, -max-inflight, -admit-wait, -request-timeout.
//
// Every endpoint is wrapped in observability middleware: request counts,
// in-flight gauge, status-code counters, and latency histograms, all in the
// system's shared obs registry. The server runs with read/write/idle
// timeouts and drains in-flight requests on SIGINT/SIGTERM, logging uptime
// and a final metrics snapshot on exit.
//
// With -refresh-interval > 0 the server runs the continuous maintenance
// loop (internal/maintain) in the background: every interval it re-fetches
// the -refresh-batch least-recently-checked pages from the world DIR's
// manifest names and folds content changes, disappearances, and
// resurrections into the live system (and DIR) while reads keep flowing.
// Watch it at /debug/maintain, whose LastStats is the last pass's counts,
// and in /metrics, whose refresh.* counters are their running totals.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"conceptweb/internal/maintain"
	"conceptweb/internal/obs"
	"conceptweb/internal/serving"
	"conceptweb/woc"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:8639", "listen address")
	data := flag.String("data", "", "directory written by wocbuild -out to serve (required)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	cacheSize := flag.Int("cache-size", serving.DefaultCacheSize,
		"result cache capacity in entries across all shards (negative disables caching)")
	cacheTTL := flag.Duration("cache-ttl", serving.DefaultCacheTTL,
		"result cache entry TTL (negative disables expiry)")
	maxInflight := flag.Int("max-inflight", serving.DefaultMaxInflight,
		"max concurrently computing requests before load shedding (negative removes the bound)")
	admitWait := flag.Duration("admit-wait", serving.DefaultAdmitWait,
		"how long an over-limit request may wait for a compute slot before a 503")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second,
		"per-request context deadline")
	traceRing := flag.Int("trace-ring", serving.DefaultTraceRing,
		"how many recent traces stay resolvable at /debug/trace")
	slowlogK := flag.Int("slowlog-k", serving.DefaultSlowlogK,
		"slowest traces retained per endpoint at /debug/slowlog")
	logSample := flag.Float64("log-sample", 0,
		"fraction of requests to emit as JSON access-log lines (0 disables, 1 logs all)")
	refreshInterval := flag.Duration("refresh-interval", 0,
		"pause between background maintenance passes (0 disables the loop)")
	refreshBatch := flag.Int("refresh-batch", 64,
		"pages re-checked per maintenance pass, least-recently-checked first")
	flag.Parse()

	if *data == "" {
		log.Fatalf("-data is required: write a directory with wocbuild -out DIR, then serve it with wocserve -data DIR")
	}
	sys, err := woc.Open(*data)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	defer sys.Close()
	st := sys.Stats()
	log.Printf("opened %s: %d pages, %d records", *data, st.PagesFetched, st.RecordsStored)
	if sh := sys.StoreHealth(); sh.TornTailRepaired {
		log.Printf("store recovery: truncated %d-byte torn log tail (previous process crashed mid-append)", sh.TruncatedBytes)
	}
	if tr := sys.BuildTrace(); tr != nil {
		log.Printf("open stages:\n%s", tr.Table())
	}

	svc := serving.New(sys, serving.Options{
		CacheSize:   *cacheSize,
		CacheTTL:    *cacheTTL,
		MaxInflight: *maxInflight,
		AdmitWait:   *admitWait,
		Metrics:     sys.Metrics(),
		TraceRing:   *traceRing,
		SlowlogK:    *slowlogK,
	})
	log.Printf("serving layer: cache %d entries (ttl %s), max-inflight %d (admit wait %s), request timeout %s",
		*cacheSize, *cacheTTL, *maxInflight, *admitWait, *reqTimeout)

	var loop *maintain.Loop
	if *refreshInterval > 0 {
		loop = maintain.NewLoop(sys, maintain.Options{
			Interval: *refreshInterval,
			Batch:    *refreshBatch,
			// Re-enforce multiplicity constraints whenever a pass writes
			// records, so incremental refreshes can't drift the store.
			ReconcileConcepts: []string{"restaurant"},
			Metrics:           sys.Metrics(),
		})
		loop.Start()
		log.Printf("maintenance loop: %d pages per pass, one pass per %s", *refreshBatch, *refreshInterval)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           newMux(sys, svc, loop, *reqTimeout, *enablePprof, newAccessLog(*logSample, os.Stderr)),
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on http://%s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	// Drain in-flight requests, then report what the process did.
	log.Printf("shutdown: draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if loop != nil {
		// Let any in-flight maintenance pass commit before the store closes.
		loop.Stop()
		st := loop.Status()
		log.Printf("maintenance loop: %d passes, %d full sweeps (totals: refresh.* in the final metrics)", st.Passes, st.Sweeps)
	}
	snap, _ := json.Marshal(sys.Metrics().Snapshot())
	log.Printf("uptime %s, final metrics: %s", time.Since(start).Round(time.Millisecond), snap)
}

// statusWriter captures the status code a handler wrote, and injects the
// request's cache disposition as a header at WriteHeader time — by then the
// serving layer has annotated the trace, and the headers are not yet sent.
type statusWriter struct {
	http.ResponseWriter
	tr     *serving.Trace
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	if w.tr != nil && w.tr.Disposition != serving.DispositionNone {
		w.Header().Set("X-Woc-Cache", string(w.tr.Disposition))
	}
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps h with per-endpoint observability: request counter,
// in-flight gauge, status-code counters, cumulative + rolling-window latency
// histograms, rolling error/shed counters, and the request trace (created
// here, annotated by the serving layer, finalized and retained here).
func instrument(reg *obs.Registry, traces *serving.TraceLog, alog *accessLog, name string, h http.HandlerFunc) http.HandlerFunc {
	requests := reg.Counter("http.req." + name)
	inflight := reg.Gauge("http.inflight")
	latency := reg.Histogram("http.latency." + name)
	rolling := reg.WindowedHistogram("http.window." + name)
	errsWin := reg.WindowedCounter("http.window.err." + name)
	shedWin := reg.WindowedCounter("http.window.shed." + name)
	return func(rw http.ResponseWriter, r *http.Request) {
		requests.Inc()
		inflight.Add(1)
		start := time.Now()
		tr := serving.NewTrace(name)
		rw.Header().Set("X-Woc-Trace", tr.ID)
		sw := &statusWriter{ResponseWriter: rw, tr: tr, status: http.StatusOK}
		defer func() {
			d := time.Since(start)
			latency.ObserveDuration(d)
			rolling.ObserveDuration(d)
			inflight.Add(-1)
			reg.Counter(fmt.Sprintf("http.status.%s.%d", name, sw.status)).Inc()
			switch {
			case sw.status == http.StatusServiceUnavailable:
				shedWin.Inc()
			case sw.status >= 500:
				errsWin.Inc()
			}
			tr.Finish(sw.status, d, nil)
			traces.Record(tr)
			alog.log(tr)
		}()
		h(sw, r.WithContext(serving.WithTrace(r.Context(), tr)))
	}
}

// runtimeGauges are the runtime/metrics samples /metrics publishes as
// gauges, read each time a snapshot is served: live heap bytes, completed
// GC cycles and goroutines.
var runtimeGauges = []struct{ sample, gauge string }{
	{"/gc/heap/live:bytes", "runtime.heap.live_bytes"},
	{"/gc/cycles/total:gc-cycles", "runtime.gc.cycles"},
	{"/sched/goroutines:goroutines", "runtime.goroutines"},
}

// sampleRuntime sets reg's runtime gauges from runtime/metrics.
func sampleRuntime(reg *obs.Registry) {
	samples := make([]metrics.Sample, len(runtimeGauges))
	for i, g := range runtimeGauges {
		samples[i].Name = g.sample
	}
	metrics.Read(samples)
	for i, g := range runtimeGauges {
		if v := samples[i].Value; v.Kind() == metrics.KindUint64 {
			reg.Gauge(g.gauge).Set(int64(v.Uint64()))
		}
	}
}

// newMux wires the JSON API over the serving layer, instrumenting every
// endpoint into the system's metrics registry. Each request gets a context
// deadline of reqTimeout; overload from the serving layer's admission
// control maps to 503 + Retry-After.
func newMux(sys *woc.System, svc *serving.Layer, loop *maintain.Loop, reqTimeout time.Duration, enablePprof bool, alog *accessLog) *http.ServeMux {
	reg := sys.Metrics()
	traces := svc.Traces()

	writeJSON := func(rw http.ResponseWriter, code int, v any) {
		// Encode first so a marshal failure can still change the status code;
		// the header must be written before the body.
		body, err := json.Marshal(v)
		if err != nil {
			log.Printf("encode: %v", err)
			code, body = http.StatusInternalServerError, []byte(`{"error":"encoding failed"}`)
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(code)
		rw.Write(body) //nolint:errcheck // client gone; nothing to do
	}
	fail := func(rw http.ResponseWriter, code int, err error) {
		writeJSON(rw, code, map[string]string{"error": err.Error()})
	}
	// failErr maps serving-layer errors to HTTP semantics: shed load is 503
	// with a Retry-After hint (the client should back off briefly, not
	// hammer), an expired deadline is 504, unknown ids are 404. The error is
	// also annotated onto the request trace so the slow-query log shows why
	// a request failed.
	failErr := func(rw http.ResponseWriter, r *http.Request, err error) {
		serving.TraceFromContext(r.Context()).SetError(err)
		switch {
		case errors.Is(err, serving.ErrOverloaded):
			rw.Header().Set("Retry-After", "1")
			fail(rw, http.StatusServiceUnavailable, err)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			fail(rw, http.StatusGatewayTimeout, err)
		case errors.Is(err, woc.ErrNotFound):
			fail(rw, http.StatusNotFound, err)
		default:
			fail(rw, http.StatusInternalServerError, err)
		}
	}
	kOf := func(r *http.Request) int {
		if k, err := strconv.Atoi(r.URL.Query().Get("k")); err == nil && k > 0 {
			return k
		}
		return 8
	}

	mux := http.NewServeMux()
	handle := func(name string, h http.HandlerFunc) {
		withDeadline := func(rw http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), reqTimeout)
			defer cancel()
			h(rw, r.WithContext(ctx))
		}
		mux.HandleFunc("/"+name, instrument(reg, traces, alog, name, withDeadline))
	}

	handle("healthz", func(rw http.ResponseWriter, r *http.Request) {
		// A degraded store still serves reads, but the instance should be
		// rotated out and restarted so recovery can rerun: report 503.
		store := sys.StoreHealth()
		code := http.StatusOK
		if store.Degraded != "" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(rw, code, map[string]any{
			"ok":       store.Degraded == "",
			"manifest": sys.Manifest(),
			"stats":    sys.Stats(),
			"store":    store,
			"epoch":    sys.Epoch(),
			"cache":    svc.CacheLen(),
		})
	})
	handle("search", func(rw http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("q")
		if q == "" {
			fail(rw, http.StatusBadRequest, errors.New("missing q"))
			return
		}
		page, err := svc.Search(r.Context(), q, kOf(r))
		if err != nil {
			failErr(rw, r, err)
			return
		}
		writeJSON(rw, http.StatusOK, page)
	})
	handle("concepts", func(rw http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("q")
		if q == "" {
			fail(rw, http.StatusBadRequest, errors.New("missing q"))
			return
		}
		hits, err := svc.ConceptSearch(r.Context(), q, kOf(r))
		if err != nil {
			failErr(rw, r, err)
			return
		}
		writeJSON(rw, http.StatusOK, hits)
	})
	handle("record", func(rw http.ResponseWriter, r *http.Request) {
		rec, err := svc.Record(r.Context(), r.URL.Query().Get("id"))
		if err != nil {
			failErr(rw, r, err)
			return
		}
		writeJSON(rw, http.StatusOK, rec)
	})
	handle("aggregate", func(rw http.ResponseWriter, r *http.Request) {
		page, err := svc.Aggregate(r.Context(), r.URL.Query().Get("id"))
		if err != nil {
			failErr(rw, r, err)
			return
		}
		writeJSON(rw, http.StatusOK, page)
	})
	handle("alternatives", func(rw http.ResponseWriter, r *http.Request) {
		recs, err := svc.Alternatives(r.Context(), r.URL.Query().Get("id"), kOf(r))
		if err != nil {
			failErr(rw, r, err)
			return
		}
		writeJSON(rw, http.StatusOK, recs)
	})
	handle("augmentations", func(rw http.ResponseWriter, r *http.Request) {
		recs, err := svc.Augmentations(r.Context(), r.URL.Query().Get("id"), kOf(r))
		if err != nil {
			failErr(rw, r, err)
			return
		}
		writeJSON(rw, http.StatusOK, recs)
	})
	handle("lineage", func(rw http.ResponseWriter, r *http.Request) {
		lines, err := svc.Lineage(r.Context(), r.URL.Query().Get("id"))
		if err != nil {
			failErr(rw, r, err)
			return
		}
		writeJSON(rw, http.StatusOK, lines)
	})

	// Observability surfaces. /metrics serves the registry snapshot, its
	// runtime gauges sampled first, as JSON or, with ?format=prometheus, as
	// Prometheus text exposition.
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
		sampleRuntime(reg)
		if r.URL.Query().Get("format") == "prometheus" {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			obs.WritePrometheus(rw, reg.Snapshot())
			return
		}
		writeJSON(rw, http.StatusOK, reg.Snapshot())
	})
	// Trace surfaces: the per-endpoint slow-query log, and point lookup of
	// any trace ID a client just saw in X-Woc-Trace.
	mux.HandleFunc("/debug/slowlog", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, traces.Slowest())
	})
	mux.HandleFunc("/debug/maintain", func(rw http.ResponseWriter, r *http.Request) {
		if loop == nil {
			writeJSON(rw, http.StatusOK, map[string]any{"enabled": false})
			return
		}
		writeJSON(rw, http.StatusOK, map[string]any{
			"enabled": true, "status": loop.Status(), "epoch": sys.Epoch(),
		})
	})
	mux.HandleFunc("/debug/trace", func(rw http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" {
			fail(rw, http.StatusBadRequest, errors.New("missing id"))
			return
		}
		tr, ok := traces.ByID(id)
		if !ok {
			fail(rw, http.StatusNotFound, errors.New("trace not in ring (retained for the last "+
				strconv.Itoa(traces.Len())+" requests)"))
			return
		}
		writeJSON(rw, http.StatusOK, tr)
	})
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
