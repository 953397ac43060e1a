// Command wocload is the load harness for wocserve: it replays a workload
// derived from the logsim behaviour model (zipfian query popularity over the
// simulated users' vocabulary, Poisson session arrivals) against a running
// server, sweeping target QPS levels, and reports the client-side view —
// per-endpoint latency quantiles with the exact hit/miss/coalesced/shed
// split read from the X-Woc-Cache response header, error and shed rates per
// level, and the QPS at which the serving layer's admission control started
// shedding.
//
//	wocbuild -out DIR
//	wocserve -data DIR -addr 127.0.0.1:8639 &
//	wocload -addr http://127.0.0.1:8639 -qps 50,100,200,400 -duration 10s \
//	        -out BENCH_PR6.json
//
// The vocabulary comes from the world the server's /healthz manifest names,
// regenerated here (logsim models the default profile only). With -slo-p99
// the process exits non-zero when the search p99 at the lowest (healthy)
// level exceeds the bound, making the sweep usable as a CI regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"conceptweb/internal/loadgen"
	"conceptweb/internal/logsim"
	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "http://127.0.0.1:8639", "base URL of the running wocserve")
	qpsList := flag.String("qps", "50,100,200,400", "comma-separated target QPS levels")
	duration := flag.Duration("duration", 10*time.Second, "time spent at each level")
	maxSessions := flag.Int("max-sessions", loadgen.DefaultMaxSessions,
		"client-side cap on concurrently running sessions")
	sloP99 := flag.Duration("slo-p99", 0,
		"fail (exit 1) if the lowest level's p99 for -slo-endpoint exceeds this (0 disables)")
	sloEndpoint := flag.String("slo-endpoint", "search", "endpoint the -slo-p99 assert applies to")
	note := flag.String("note", "", "free-form note recorded in the report (e.g. server flags)")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	flag.Parse()

	levels, err := parseLevels(*qpsList)
	if err != nil {
		log.Fatalf("wocload: %v", err)
	}

	m, err := waitHealthy(*addr, 30*time.Second)
	if err != nil {
		log.Fatalf("wocload: %v", err)
	}
	// Regenerate the world the server indexed and run the behaviour model
	// over it; the emitted log corpus defines the query vocabulary and its
	// popularity ranking.
	var web *webgen.World
	if world, err := m.World(); err == nil {
		web, _ = world.Web().(*webgen.World)
	}
	if web == nil {
		log.Fatalf("wocload: the server serves a %q world; logsim models only the default world", m.Profile)
	}
	simCfg := logsim.DefaultConfig()
	simCfg.Seed = m.Seed
	logs := logsim.NewSimulator(web, simCfg).Run()
	w, err := loadgen.FromLogs(logs, m.Seed)
	if err != nil {
		log.Fatalf("wocload: %v", err)
	}
	log.Printf("workload: %d unique queries from %d logged events (%s world, seed %d, size %d)",
		len(w.Queries()), len(logs.Queries), m.Profile, m.Seed, m.Size)

	n, err := loadgen.Bootstrap(w, *addr, nil)
	if err != nil {
		log.Fatalf("wocload: %v", err)
	}
	log.Printf("bootstrap: harvested %d record IDs", n)

	rep, runErr := loadgen.Run(w, loadgen.Options{
		BaseURL:     *addr,
		Levels:      levels,
		Duration:    *duration,
		MaxSessions: *maxSessions,
		SLOP99:      *sloP99,
		SLOEndpoint: *sloEndpoint,
		Logf:        log.Printf,
	})
	if rep == nil {
		log.Fatalf("wocload: %v", runErr)
	}
	rep.Seed = m.Seed
	rep.Notes = *note

	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("wocload: encode report: %v", err)
	}
	body = append(body, '\n')
	if *out == "" {
		os.Stdout.Write(body) //nolint:errcheck
	} else if err := os.WriteFile(*out, body, 0o644); err != nil {
		log.Fatalf("wocload: write %s: %v", *out, err)
	} else {
		log.Printf("report written to %s", *out)
	}
	if rep.ShedOnsetQPS > 0 {
		log.Printf("shed onset at %.0f qps", rep.ShedOnsetQPS)
	}
	var total int64
	for _, lv := range rep.Levels {
		total += lv.Requests
	}
	if total == 0 {
		log.Fatalf("wocload: sweep completed zero requests; server unreachable or workload empty")
	}
	if runErr != nil {
		log.Fatalf("wocload: %v", runErr)
	}
}

// parseLevels parses "50,100,200" into QPS levels.
func parseLevels(s string) ([]float64, error) {
	var levels []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad QPS level %q", part)
		}
		levels = append(levels, v)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("no QPS levels in %q", s)
	}
	return levels, nil
}

// waitHealthy polls /healthz until the server answers 200 (it opens its
// directory before listening) and returns the manifest the server reports.
func waitHealthy(baseURL string, timeout time.Duration) (woc.Manifest, error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(baseURL + "/healthz")
		if err == nil {
			var health struct{ Manifest woc.Manifest }
			if resp.StatusCode == http.StatusOK {
				err = json.NewDecoder(resp.Body).Decode(&health)
				resp.Body.Close()
				return health.Manifest, err
			}
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			return woc.Manifest{}, fmt.Errorf("server at %s not healthy after %s: %v", baseURL, timeout, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}
