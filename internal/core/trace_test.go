package core

import (
	"reflect"
	"strings"
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
	if got := woc.Records.Len(); got != stats.RecordsStored+stats.ReviewRecords {
		t.Errorf("store holds %d records, want %d stored by resolve + %d review records",
			got, stats.RecordsStored, stats.ReviewRecords)
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

// refreshCounters names the registry counter of every count field of
// RefreshStats: the counters are the only running totals of the passes.
var refreshCounters = map[string]string{
	"PagesChecked":      "refresh.pages.checked",
	"PagesUnchanged":    "refresh.pages.unchanged",
	"PagesChanged":      "refresh.pages.changed",
	"PagesGone":         "refresh.pages.gone",
	"RecordsUpdated":    "refresh.records.updated",
	"RecordsCreated":    "refresh.records.created",
	"RecordsSuperseded": "refresh.records.superseded",
	"RecordsDeleted":    "refresh.records.deleted",
	"PagesRelinked":     "refresh.pages.relinked",
	"UpsertCompared":    "refresh.upsert.compared",
	"UpsertPruned":      "refresh.upsert.pruned",
	"PagesAnalyzed":     "refresh.extract.analyzed",
	"PagesReplayed":     "refresh.extract.replayed",
	"HostsReinduced":    "refresh.extract.reinduced",
}

// TestRefreshCountersMatchStats runs the scripted churn schedule and holds
// each pass's refresh.* counter increments to its RefreshStats fields, for
// every count field (Workers is a setting, not a count). The schedule
// creates, updates, supersedes and deletes records.
func TestRefreshCountersMatchStats(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	mf := newMutableFetcher(w)
	m := obs.NewRegistry()
	cfg := StandardConfig(reg, w.Cities(), webgen.Cuisines())
	cfg.Metrics = m
	b := &Builder{Fetcher: mf, Cfg: cfg}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()

	rt := reflect.TypeOf(RefreshStats{})
	var fields []string
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Type.Kind() == reflect.Int && f.Name != "Workers" {
			fields = append(fields, f.Name)
		}
	}
	if len(fields) != len(refreshCounters) {
		t.Fatalf("RefreshStats has %d count fields, the counter table %d", len(fields), len(refreshCounters))
	}
	passes := append(scriptedChurn(t, w, woc), churnCreatesAndDeletes(t, w, woc))
	totals := map[string]int{}
	for i, pass := range passes {
		pass.apply(mf)
		before := m.Snapshot().Counters
		st, err := b.Refresh(woc, pass.urls)
		if err != nil {
			t.Fatal(err)
		}
		after := m.Snapshot().Counters
		if got := after["refresh.runs"] - before["refresh.runs"]; got != 1 {
			t.Errorf("pass %d: refresh.runs went up by %d", i+1, got)
		}
		sv := reflect.ValueOf(*st)
		for _, f := range fields {
			name, ok := refreshCounters[f]
			if !ok {
				t.Fatalf("RefreshStats.%s has no counter", f)
			}
			want := int(sv.FieldByName(f).Int())
			if got := int(after[name] - before[name]); got != want {
				t.Errorf("pass %d: %s went up by %d, RefreshStats.%s = %d", i+1, name, got, f, want)
			}
			totals[f] += want
		}
	}
	for _, f := range []string{"RecordsCreated", "RecordsUpdated", "RecordsSuperseded", "RecordsDeleted"} {
		if totals[f] == 0 {
			t.Errorf("the schedule left %s at 0 in every pass: %v", f, totals)
		}
	}
}

// churnCreatesAndDeletes is a pass that creates and deletes records: the
// one page an event record comes from renames the event, so the record
// loses its only source and a record under the new name takes its place.
func churnCreatesAndDeletes(t *testing.T, w *webgen.World, woc *WebOfConcepts) scriptedPass {
	t.Helper()
	var ev *lrec.Record
	woc.Records.Scan(func(r *lrec.Record) bool {
		if r.Concept == "event" && len(woc.RevAssoc[r.ID]) == 1 {
			ev = r
		}
		return ev == nil
	})
	if ev == nil {
		t.Fatal("world too small: no event record with a single source page")
	}
	u := woc.RevAssoc[ev.ID][0]
	page, _ := w.PageByURL(u)
	renamed := strings.ReplaceAll(page.HTML, ev.Get("name"), "Zanzibar Quokka Parade")
	return scriptedPass{apply: func(mf *mutableFetcher) { mf.setOverlay(u, renamed) }, urls: []string{u}}
}
