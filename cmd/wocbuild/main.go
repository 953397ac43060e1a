// Command wocbuild generates a synthetic web, runs the web-of-concepts
// construction pipeline over it, and prints build statistics. With -out DIR
// it writes the built system into DIR, which woc.Open and `wocserve -data
// DIR` reopen:
//
//	DIR/records/       the concept store (lrec snapshot, one per shard)
//	DIR/pages/         the page store (pages-NNNN.log segments)
//	DIR/manifest.json  profile, seed, size and gazetteer; written last
//
// Without -out the pages go to a temporary directory, removed on exit.
//
// Two world profiles are supported:
//
//   - default: the 2011-page fixed world, built through the crawl pipeline
//     (core.Builder.Build). Output is byte-identical run to run.
//   - heavytail: a streamed heavy-tail world of -pages pages (a few huge
//     aggregators, a long tail of small sites) built through the
//     bounded-memory pipeline (core.Builder.BuildStream); page bytes stay in
//     the page store's segment files, never resident. This is the
//     corpus-scale path; pair with -stats-json and -rss-ceiling to record
//     and enforce the memory envelope.
//
// Usage:
//
//	wocbuild [-seed 1] [-restaurants 120] [-workers N] [-shards N] [-out dir]
//	         [-world-profile default|heavytail] [-pages 100000]
//	         [-stats-json file] [-rss-ceiling bytes]
//	         [-v] [-cpuprofile build.pprof] [-memprofile mem.pprof]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/obs"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
	"conceptweb/woc"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the command; a failure after the build returns through the
// deferred Close, which removes the temporary page store without -out.
func run() (err error) {
	seed := flag.Int64("seed", 1, "world generation seed")
	restaurants := flag.Int("restaurants", 120, "number of restaurants in the world (default profile)")
	profile := flag.String("world-profile", "default", "world profile: default (fixed world, crawl pipeline) or heavytail (streamed bounded-memory pipeline)")
	pages := flag.Int("pages", 100000, "approximate world size in pages (heavytail profile)")
	statsJSON := flag.String("stats-json", "", "append one JSON line of build statistics (pages, wall_ms, peak_rss_bytes, ...) to this file")
	rssCeiling := flag.Int64("rss-ceiling", 0, "exit non-zero if peak RSS exceeds this many bytes (0 = unenforced)")
	out := flag.String("out", "", "write the built system into this directory (absent or empty): records/, pages/, manifest.json")
	workers := flag.Int("workers", 0, "worker-pool size for the extract/link/index stages (0 = GOMAXPROCS); output is identical at any value")
	shards := flag.Int("shards", 0, "hash-partition count for the store and indexes (0 or 1 = single partition); output is identical at any value")
	verbose := flag.Bool("v", false, "periodic progress lines on stderr, plus the per-stage timing table and per-concept record counts")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the build to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after the build) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC() // up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}()

	start := time.Now()
	reg := lrec.NewRegistry()
	manifest := woc.Manifest{Profile: *profile, Seed: *seed, Cuisines: webgen.Cuisines()}
	var cfg core.Config
	var fetcher webgraph.Fetcher
	var build func(*core.Builder) (*core.WebOfConcepts, *core.BuildStats, error)
	var worldPages int

	switch *profile {
	case "default":
		wc := webgen.DefaultConfig()
		wc.Seed = *seed
		wc.Restaurants = *restaurants
		w := webgen.Generate(wc)
		worldPages = len(w.Pages())
		fmt.Printf("world: %d pages across %d sites (%d restaurants, %d papers, %d products)\n",
			len(w.Pages()), len(w.Sites), len(w.Restaurants), len(w.Papers), len(w.Products))
		webgen.RegisterConcepts(reg)
		cfg = core.StandardConfig(reg, w.Cities(), webgen.Cuisines())
		manifest.Size, manifest.Cities, fetcher = *restaurants, w.Cities(), w
		build = func(b *core.Builder) (*core.WebOfConcepts, *core.BuildStats, error) { return b.Build(w.SeedURLs()) }

	case "heavytail":
		scfg := webgen.HeavyTailConfig(*pages)
		scfg.Seed = *seed
		w := webgen.NewStreamWorld(scfg)
		worldPages = w.PlannedPages()
		fmt.Printf("world: %d pages planned across %d sites (heavy-tail profile, seed %d)\n",
			w.PlannedPages(), len(w.Plans()), *seed)
		webgen.RegisterScaleConcepts(reg)
		cfg = core.ScaleConfig(reg, w.Cities(), webgen.Cuisines())
		manifest.Size, manifest.Cities, fetcher = *pages, w.Cities(), w
		build = func(b *core.Builder) (*core.WebOfConcepts, *core.BuildStats, error) { return b.BuildStream(w) }

	default:
		return fmt.Errorf("unknown -world-profile %q (want default or heavytail)", *profile)
	}
	cfg.Workers, cfg.Shards = *workers, *shards
	if *verbose {
		cfg.Progress = progressPrinter()
	}
	// With -out the build stores its pages where the system will live;
	// without, core opens a page store in a temporary directory.
	if *out != "" {
		if names, err := os.ReadDir(*out); err == nil && len(names) > 0 {
			return fmt.Errorf("-out %s is not empty: a build writes a fresh directory", *out)
		}
		if cfg.PageStore, err = webgraph.OpenDiskStore(filepath.Join(*out, "pages"), webgraph.DiskOptions{}); err != nil {
			return fmt.Errorf("page store: %w", err)
		}
	}
	built, stats, err := build(&core.Builder{Fetcher: fetcher, Cfg: cfg})
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	if *profile == "default" {
		fmt.Printf("crawl:   %d pages fetched, %d failures\n", stats.PagesFetched, stats.FetchFailures)
	} else {
		fmt.Printf("ingest:  %d pages streamed into the page store\n", stats.PagesFetched)
	}
	defer func() { err = errors.Join(err, built.Close()) }()

	changed := built.Reconcile("restaurant", core.PreferSupport)
	wall := time.Since(start)

	fmt.Printf("extract: %d candidates\n", stats.Candidates)
	fmt.Printf("resolve: %d records stored, %d candidates merged away\n",
		stats.RecordsStored, stats.ClustersMerged)
	fmt.Printf("link:    %d pages semantically linked, %d review records\n",
		stats.PagesLinked, stats.ReviewRecords)
	fmt.Printf("reconcile: %d records trimmed to constraints\n", changed)

	if *verbose {
		if stats.Trace != nil {
			fmt.Printf("\nworkers: %d\n%s\n", stats.Workers, stats.Trace.Table())
		}
		ps := built.Pages.Stats()
		fmt.Printf("pages:   %d parsed by the build (page store: %d gets, %d parses)\n",
			stats.PageParses, ps.Gets, ps.Parses)
		for _, c := range built.Records.Concepts() {
			fmt.Printf("  %-12s %d records\n", c, built.Records.CountByConcept(c))
		}
	}

	if *out != "" {
		if err := writeLayout(built, *out, *shards, manifest); err != nil {
			return fmt.Errorf("write %s: %w", *out, err)
		}
	}

	rss := peakRSSBytes()
	fmt.Printf("build: %d pages in %s, peak rss %d MiB\n", stats.PagesFetched, wall.Round(time.Millisecond), rss>>20)

	if *statsJSON != "" {
		rec := map[string]any{
			"profile":        *profile,
			"pages_planned":  worldPages,
			"pages":          stats.PagesFetched,
			"page_parses":    stats.PageParses,
			"wall_ms":        wall.Milliseconds(),
			"peak_rss_bytes": rss,
			"candidates":     stats.Candidates,
			"records_stored": stats.RecordsStored,
			"pages_linked":   stats.PagesLinked,
			"workers":        stats.Workers,
			"shards":         *shards,
		}
		if ms := stageMillis(stats.Trace); len(ms) > 0 {
			rec["stage_ms"] = ms
		}
		if err := appendStatsJSON(*statsJSON, rec); err != nil {
			return fmt.Errorf("stats-json: %w", err)
		}
	}
	if *rssCeiling > 0 && rss > *rssCeiling {
		return fmt.Errorf("peak rss %d bytes exceeds ceiling %d bytes", rss, *rssCeiling)
	}
	return nil
}

// stageMillis flattens the build trace's top-level stages (crawl or ingest,
// extract, resolve, link, index) into a name → wall-time-ms map for the
// stats-json record, so the scaling curve shows where time goes per stage.
func stageMillis(tr *obs.TraceReport) map[string]int64 {
	if tr == nil {
		return nil
	}
	ms := make(map[string]int64, len(tr.Children))
	for _, c := range tr.Children {
		ms[c.Name] = c.Duration.Milliseconds()
	}
	return ms
}

// writeLayout writes the built system into dir as woc.Open reads it: the
// pages the build stored in dir/pages made durable, the records copied into
// a fresh store in dir/records, and the manifest last, so that a directory
// holding one is a finished build.
func writeLayout(built *core.WebOfConcepts, dir string, shards int, m woc.Manifest) error {
	if err := built.Pages.Flush(); err != nil {
		return err
	}
	n, err := built.SaveRecords(filepath.Join(dir, "records"), shards)
	if err != nil {
		return err
	}
	fmt.Printf("persisted %d records to %s\n", n, dir)
	return woc.WriteManifest(dir, m)
}

// progressPrinter returns a core.Config.Progress callback that emits
// rate-limited progress lines on stderr: at most one every 2s, tagged with
// the current peak RSS so a watcher sees the memory envelope evolve live.
func progressPrinter() func(stage string, done, total int) {
	var mu sync.Mutex
	last := time.Now()
	return func(stage string, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(last) < 2*time.Second {
			return
		}
		last = time.Now()
		if total > 0 {
			fmt.Fprintf(os.Stderr, "progress: %-8s %d/%d  rss=%dMiB\n", stage, done, total, peakRSSBytes()>>20)
		} else {
			fmt.Fprintf(os.Stderr, "progress: %-8s %d  rss=%dMiB\n", stage, done, peakRSSBytes()>>20)
		}
	}
}

// peakRSSBytes reports the process's peak resident set size. On Linux this
// is VmHWM from /proc/self/status (the kernel's high-water mark, which is
// what a container memory limit would enforce against); elsewhere it falls
// back to the Go runtime's view of memory obtained from the OS.
func peakRSSBytes() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			f := strings.Fields(line)
			if len(f) >= 2 {
				if kb, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// appendStatsJSON appends one JSON object per line to path, so repeated runs
// (e.g. make benchscale) accumulate a scaling curve.
func appendStatsJSON(path string, rec map[string]any) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return errors.Join(err, f.Close())
}
