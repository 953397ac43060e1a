package core

import (
	"testing"

	"conceptweb/internal/lrec"
	"conceptweb/internal/obs"
	"conceptweb/internal/webgen"
)

// TestBuildStageTrace checks the tentpole contract: every build produces a
// per-stage trace covering the five pipeline stages, and a metrics registry
// wired through Config receives stage histograms plus store counters.
func TestBuildStageTrace(t *testing.T) {
	_, _, stats, _ := built(t)
	if stats.Trace == nil {
		t.Fatal("BuildStats.Trace is nil")
	}
	if stats.Trace.Name != "build" {
		t.Errorf("root = %q, want build", stats.Trace.Name)
	}
	for _, stage := range []string{"crawl", "extract", "resolve", "link", "index"} {
		n := stats.Trace.Find(stage)
		if n == nil {
			t.Errorf("trace missing stage %q", stage)
			continue
		}
		if n.Duration < 0 {
			t.Errorf("stage %q duration = %v", stage, n.Duration)
		}
	}
	if len(stats.Trace.Children) != 5 {
		t.Errorf("stage count = %d, want 5", len(stats.Trace.Children))
	}
	table := stats.Trace.Table()
	if table == "" {
		t.Error("empty stage table")
	}
}

func TestBuildMetricsWiring(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	m := obs.NewRegistry()
	cfg := StandardConfig(reg, w.Cities(), nil)
	cfg.Metrics = m
	b := &Builder{Fetcher: w, Cfg: cfg}
	woc, stats, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	snap := m.Snapshot()
	for _, name := range []string{"build.crawl", "build.extract", "build.resolve",
		"build.link", "build.index"} {
		if snap.Histograms[name].Count != 1 {
			t.Errorf("%s count = %d, want 1", name, snap.Histograms[name].Count)
		}
	}
	if snap.Counters["lrec.puts"] == 0 {
		t.Error("lrec.puts = 0, want store traffic")
	}
	if got := snap.Counters["build.records.stored"]; got != int64(stats.RecordsStored) {
		t.Errorf("build.records.stored = %d, want %d", got, stats.RecordsStored)
	}

	// A refresh pass traces its own stages into refresh.* histograms.
	urls := woc.RevAssoc[woc.Records.ByConcept("restaurant")[0].ID]
	if len(urls) == 0 {
		t.Skip("no associated pages to refresh")
	}
	rstats, err := b.Refresh(woc, urls)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Trace == nil || rstats.Trace.Find("refetch") == nil {
		t.Fatalf("refresh trace = %+v", rstats.Trace)
	}
	if m.Snapshot().Histograms["refresh.refetch"].Count != 1 {
		t.Error("refresh.refetch histogram not recorded")
	}
}
