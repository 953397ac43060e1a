package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/obs"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// buildStages are the top-level stages of a build in pipeline order.
// core.Builder.BuildStream names the first "ingest", Build names it "crawl";
// both are reported as core.stage_ms.ingest.
var buildStages = []string{"ingest", "extract", "resolve", "link", "index"}

// stageMillis flattens a build trace into stage → wall milliseconds.
func stageMillis(tr *obs.TraceReport) map[string]float64 {
	ms := map[string]float64{}
	if tr == nil {
		return ms
	}
	for _, c := range tr.Children {
		name := c.Name
		if name == "crawl" {
			name = "ingest"
		}
		ms[name] = float64(c.Duration.Nanoseconds()) / 1e6
	}
	return ms
}

// buildCounts is what a build of one corpus must reproduce exactly.
type buildCounts struct{ pages, candidates, records, linked int }

// pinnedBuild is what seed 1 gives at the workload's own size; any change to
// it is a change of the program's output, not of its speed.
var pinnedBuild = buildCounts{pages: 8000, candidates: 12474, records: 3930, linked: 4139}

// buildOnce runs the construction pipeline the way cmd/wocbuild's heavytail
// branch does, on a disk page store in a fresh directory, and returns the
// web of concepts, its statistics and the wall time of BuildStream +
// Reconcile.
func buildOnce(e *env, c *corpus) (*core.WebOfConcepts, *core.BuildStats, time.Duration, func(), error) {
	dir, err := e.tempDir("pagestore")
	if err != nil {
		return nil, nil, 0, nil, err
	}
	reg := lrec.NewRegistry()
	webgen.RegisterScaleConcepts(reg)
	cfg := core.ScaleConfig(reg, c.world.Cities(), webgen.Cuisines())
	ps, err := webgraph.OpenDiskStore(dir, webgraph.DiskOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, nil, fmt.Errorf("page store: %w", err)
	}
	cfg.PageStore = ps
	b := &core.Builder{Fetcher: c, Cfg: cfg}
	start := time.Now()
	built, stats, err := b.BuildStream(c)
	if err != nil {
		ps.Close()
		os.RemoveAll(dir)
		return nil, nil, 0, nil, fmt.Errorf("build: %w", err)
	}
	built.Reconcile("restaurant", core.PreferSupport)
	wall := time.Since(start)
	cleanup := func() {
		built.Close()
		os.RemoveAll(dir)
	}
	return built, stats, wall, cleanup, nil
}

// runBuild is build.stream8k: closed loop, one builder; work is pages built
// per second and wait is the wall time of one whole build.
func runBuild(e *env) (*report, error) {
	rep := newReport()
	root := e.tr.id()
	runStart := time.Now()

	var c *corpus
	rep.e2e["setup_s"], _ = e.setUp(root, func() error {
		c = newCorpus(e.pages, e.seed)
		return nil
	}, func() { c = nil })

	var walls []float64
	var first buildCounts
	stages := map[string]float64{}
	var total time.Duration
	for n := 0; n == 0 || (total.Seconds() < e.seconds && !e.quick); n++ {
		id := e.tr.id()
		t0 := time.Now()
		_, stats, wall, cleanup, err := buildOnce(e, c)
		if err != nil {
			return nil, err
		}
		// The stages ran one after another inside BuildStream; their spans
		// are laid end to end from the build's start.
		at := t0
		for _, ch := range stats.Trace.Children {
			e.tr.record(e.tr.id(), id, root, "core."+ch.Name, at, at.Add(ch.Duration))
			at = at.Add(ch.Duration)
		}
		e.tr.record(id, root, root, "build", t0, t0.Add(wall))
		cleanup()
		total += wall
		walls = append(walls, float64(wall.Nanoseconds())/1e3)
		for k, v := range stageMillis(stats.Trace) {
			stages[k] += v
		}
		got := buildCounts{stats.PagesFetched, stats.Candidates, stats.RecordsStored, stats.PagesLinked}
		rep.attempted += int64(len(c.urls))
		rep.failed += int64(len(c.urls) - stats.PagesFetched)
		if n == 0 {
			first = got
		} else if got != first {
			rep.problemf("build %d gave %+v, build 0 gave %+v", n, got, first)
		}
	}
	if first.records == 0 || first.linked == 0 {
		rep.problemf("build stored %d records and linked %d pages", first.records, first.linked)
	}
	if e.seed == 1 && e.pages == pinnedBuild.pages && first != pinnedBuild {
		rep.problemf("seed 1 gave %+v, pinned %+v", first, pinnedBuild)
	}
	e.tr.record(root, 0, root, "workload", runStart, time.Now())

	sort.Float64s(walls)
	rep.e2e["work_per_s"] = float64(rep.attempted-rep.failed) / total.Seconds()
	rep.e2e["wait_p50_us"] = percentile(walls, 0.5)
	rep.layer[tailMetric] = percentile(walls, 0.99)
	rep.info["builds"] = len(walls)
	rep.info["counts"] = fmt.Sprintf("%+v", first)
	if e.tr != nil {
		for _, s := range buildStages {
			rep.layer["core.stage_ms."+s] = stages[s] / float64(len(walls))
		}
		if err := runProbes(e, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
