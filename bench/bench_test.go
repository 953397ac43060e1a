package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"conceptweb/internal/obs"
	"conceptweb/internal/serving"
	"conceptweb/woc"
)

func TestHistQuantile(t *testing.T) {
	var h hist
	var exact []float64
	for i := 1; i <= 20000; i++ {
		ns := int64(i) * int64(i) // 1 ns … 400 ms, dense at the low end
		h.add(ns)
		exact = append(exact, float64(ns))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		got, want := h.quantile(q), percentile(exact, q)
		if math.Abs(got-want) > 0.01*want+1 {
			t.Errorf("quantile(%g) = %g, exact %g", q, got, want)
		}
	}
	var a, b hist
	a.add(100)
	b.add(300)
	a.merge(&b)
	if a.n != 2 || a.quantile(1) < 300 || a.quantile(1) > 303 {
		t.Errorf("merged histogram: n %d, max %g", a.n, a.quantile(1))
	}
	for _, ns := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<40 + 12345, 1 << 62} {
		low, width := histBounds(histBucket(ns))
		if float64(ns) < low || float64(ns) >= low+width {
			t.Errorf("%d falls in bucket [%g, %g)", ns, low, low+width)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{4: 0.5, 99: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 1200: 0.99, 10000: 0.999, 5000000: 0.9999} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g %g %g", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "child", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "child", StartNS: 20, EndNS: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "child", StartNS: 90, EndNS: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "leaf", StartNS: 25, EndNS: 35},
	}
	got := selfTimes(spans)
	// parent: 100 − ([10,50] ∪ [90,100]) = 50; children: 20 + (30 − 10) + 30.
	want := map[string]int64{"parent": 50, "child": 70, "leaf": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilAndBound(t *testing.T) {
	var none *tracer
	none.record(none.id(), 0, 0, "x", time.Now(), time.Now()) // must not panic
	tr := newTracer()
	now := time.Now()
	for i := 0; i < maxSpans+5; i++ {
		tr.record(tr.id(), 0, 0, "x", now, now)
	}
	if len(tr.spans) != maxSpans || tr.dropped != 5 {
		t.Errorf("kept %d spans, dropped %d", len(tr.spans), tr.dropped)
	}
}

func TestCyclicOps(t *testing.T) {
	const vocab, recs = 1000, 90
	a, b := cyclicOps(4000, 0, 2, vocab, recs), cyclicOps(4000, 1, 2, vocab, recs)
	if !reflect.DeepEqual(a, cyclicOps(4000, 0, 2, vocab, recs)) {
		t.Fatal("cyclicOps is not deterministic")
	}
	var counts [numOps]int
	seen := map[uint32]int{}
	for i, o := range a {
		counts[o.kind]++
		if o.kind != opSearch {
			continue
		}
		if prev, ok := seen[o.idx]; ok && counts[opSearch]-prev != vocab {
			t.Fatalf("op %d: search key %d came round after %d searches, want %d", i, o.idx, counts[opSearch]-prev, vocab)
		}
		seen[o.idx] = counts[opSearch]
	}
	if counts != [numOps]int{2400, 800, 400, 200, 200} {
		t.Errorf("mix over 4000 ops = %v, want 60/20/10/5/5 %%", counts)
	}
	if a[0].idx != 0 || b[0].idx != vocab/2 {
		t.Errorf("clients start at %d and %d, want 0 and %d", a[0].idx, b[0].idx, vocab/2)
	}
}

func TestZipfOps(t *testing.T) {
	a := zipfOps(50000, 7, 64, 1000, 500)
	if !reflect.DeepEqual(a, zipfOps(50000, 7, 64, 1000, 500)) {
		t.Fatal("zipfOps is not deterministic for one seed")
	}
	if reflect.DeepEqual(a, zipfOps(50000, 8, 64, 1000, 500)) {
		t.Fatal("zipfOps gives the same schedule for two seeds")
	}
	freq := map[uint32]int{}
	for _, o := range a {
		if o.idx >= 64 {
			t.Fatalf("key %d outside the 64 hot keys", o.idx)
		}
		if o.kind == opSearch {
			freq[o.idx]++
		}
	}
	if freq[0] <= freq[1] || freq[1] <= freq[8] || freq[8] <= freq[60] {
		t.Errorf("search keys are not zipf: f(0)=%d f(1)=%d f(8)=%d f(60)=%d", freq[0], freq[1], freq[8], freq[60])
	}
}

// fakeSource answers every read at once; the layer above it is what is
// tested.
type fakeSource struct{}

func (f *fakeSource) Epoch() uint64                              { return 1 }
func (f *fakeSource) Search(string, int) *woc.Page               { return &woc.Page{} }
func (f *fakeSource) ConceptSearch(string, int) []woc.Hit        { return nil }
func (f *fakeSource) Aggregate(string) (*woc.Aggregation, error) { return &woc.Aggregation{}, nil }
func (f *fakeSource) Alternatives(string, int) ([]woc.Suggestion, error) {
	return nil, nil
}
func (f *fakeSource) Augmentations(string, int) ([]woc.Suggestion, error) {
	return nil, nil
}
func (f *fakeSource) Record(id string) (woc.Record, error) { return woc.Record{ID: id}, nil }
func (f *fakeSource) Lineage(string) ([]string, error)     { return nil, nil }

// A cyclic walk over more keys than twice the cache holds must never hit the
// cache, and a zipf walk over a working set that fits must almost always.
func TestWalksAgainstTheDefaultCache(t *testing.T) {
	recs := make([]woc.Record, 2200)
	for i := range recs {
		id := fmt.Sprintf("r%04d", i)
		recs[i] = woc.Record{ID: id, Attrs: map[string]string{"name": "name" + id, "city": "city", "cuisine": "thai" + id}}
	}
	vocab := vocabulary(recs, 3)
	if len(vocab) <= 2*serving.DefaultCacheSize {
		t.Fatalf("vocabulary of %d keys is too small for the test", len(vocab))
	}
	walk := func(ops []op) (hit, miss int64) {
		reg := obs.NewRegistry()
		s := &served{vocab: vocab, layer: serving.New(&fakeSource{}, serving.Options{Metrics: reg})}
		for _, r := range recs {
			s.recIDs = append(s.recIDs, r.ID)
		}
		for _, o := range ops {
			if !s.call(context.Background(), o) {
				t.Fatal("operation failed")
			}
		}
		for name, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(name, "serve.hit.") {
				hit += v
			}
			if strings.HasPrefix(name, "serve.miss.") {
				miss += v
			}
		}
		return hit, miss
	}
	if hit, _ := walk(cyclicOps(3*len(vocab), 0, 1, len(vocab), len(recs))); hit != 0 {
		t.Errorf("cyclic walk hit the cache %d times", hit)
	}
	hit, miss := walk(zipfOps(200000, 3, hotKeys, len(vocab), len(recs)))
	if share := float64(hit) / float64(hit+miss); share < 0.97 {
		t.Errorf("zipf walk over %d keys hit the cache %.3f of the time", hotKeys, share)
	}
}

func TestVocabulary(t *testing.T) {
	recs := []woc.Record{
		{ID: "r1", Attrs: map[string]string{"name": "Gochi", "city": "Cupertino", "cuisine": "japanese"}},
		{ID: "r2", Attrs: map[string]string{"name": "Sushi Go", "city": "Cupertino", "cuisine": "japanese"}},
		{ID: "r3", Attrs: map[string]string{"city": "Nowhere"}}, // no name: no queries
	}
	v := vocabulary(recs, 5)
	if !reflect.DeepEqual(v, vocabulary(recs, 5)) {
		t.Fatal("vocabulary is not deterministic")
	}
	// 2 instance + 1 shared set + 4 attribute queries, each at k = 10 and 20.
	if len(v) != 14 {
		t.Errorf("vocabulary has %d entries, want 14: %+v", len(v), v)
	}
	keys := map[string]bool{}
	for _, q := range v {
		keys[q.q+"\x1f"+string(rune(q.k))] = true
	}
	if len(keys) != len(v) {
		t.Errorf("vocabulary repeats a cache key: %+v", v)
	}
}

func TestRunReaderChargesStallsFromDueTime(t *testing.T) {
	const interval = 5 * time.Millisecond
	begin := time.Now()
	st := runReader(begin, begin.Add(40*interval), interval, func(i int) bool {
		if i == 4 {
			time.Sleep(12 * interval) // a held lock
		}
		return i != 7
	})
	if len(st.latUS) != 40 {
		t.Fatalf("%d reads, want 40: an open loop drops none", len(st.latUS))
	}
	if st.failed != 1 {
		t.Errorf("failed = %d, want 1", st.failed)
	}
	// Read 4 stalls for 12 intervals; reads 5 … 15 were due while it did and
	// wait for what was left of the stall from their own due times.
	for i := 5; i <= 10; i++ {
		want := float64((12 - (i - 4)) * int(interval/time.Microsecond))
		if st.latUS[i] < want {
			t.Errorf("read %d latency %.0f us, want at least %.0f us from its due time", i, st.latUS[i], want)
		}
	}
	if st.latUS[2] > float64(4*interval/time.Microsecond) || st.latUS[35] > float64(4*interval/time.Microsecond) {
		t.Errorf("reads outside the stall took %.0f and %.0f us", st.latUS[2], st.latUS[35])
	}
	if st.lateMS < 50 {
		t.Errorf("generator lateness %.1f ms, want the stall's backlog", st.lateMS)
	}
}

func TestMarker(t *testing.T) {
	seen := map[string]bool{}
	for _, seed := range []int64{0, 1, 25, 26, 27, 1000, 1 << 40} {
		for pass := 0; pass < 3; pass++ {
			m := marker(seed, pass)
			if seen[m] {
				t.Errorf("marker %q repeats", m)
			}
			seen[m] = true
			if strings.Trim(m, "abcdefghijklmnopqrstuvwxyz") != "" {
				t.Errorf("marker %q is not made of letters only", m)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"wait_p50_us", "us", "lower", 0.10}
	higher := metricDef{"work_per_s", "1/s", "higher", 0.10}
	tight := func(m float64) summary { return summary{n: 10, q1: m * 0.99, q2: m, q3: m * 1.01} }
	wide := summary{n: 10, q1: 80, q2: 100, q3: 120}
	for _, c := range []struct {
		d            metricDef
		base, change summary
		want         string
	}{
		{lower, tight(100), tight(109), "ok"},
		{lower, tight(100), tight(111), "worse"},
		{lower, tight(100), tight(50), "ok"},
		{higher, tight(100), tight(91), "ok"},
		{higher, tight(100), tight(89), "worse"},
		{higher, tight(100), tight(200), "ok"},
		{lower, wide, tight(150), "unresolved"},
		{lower, tight(100), wide, "unresolved"},
	} {
		if got := verdict(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s: base %g, change %g: %s, want %s", c.d.name, c.base.q2, c.change.q2, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, work float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 4; i++ {
			vals := map[string]float64{"setup_s": 1, "work_per_s": work + float64(i), "wait_p50_us": 10, "peak_rss_mib": 100}
			ent := entry{Workload: "serve.cold", Correct: true, Attempted: 1, EndToEnd: values(endToEnd, vals)}
			if err := appendEntry(path, ent); err != nil {
				t.Fatal(err)
			}
			ent.Trace = 1 // a traced result must not count
			ent.EndToEnd = values(endToEnd, map[string]float64{"work_per_s": 1})
			if err := appendEntry(path, ent); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 1000), write("same.jsonl", 1001), write("slow.jsonl", 500)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, a, same); err != nil || worse {
		t.Errorf("equal files: worse %v, err %v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, a, slow)
	if err != nil || !worse {
		t.Errorf("halved throughput: worse %v, err %v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "worse") || strings.Count(out.String(), "serve.cold") != len(endToEnd) {
		t.Errorf("comparison table:\n%s", out.String())
	}
}

// TestQuickSmoke runs every workload traced with -quick's short phases, which
// exercises everything the benchmark calls in the program, and checks that
// each reports every metric and finds its outputs correct. The corpora keep
// their sizes: a cold walk needs more keys than twice the default cache.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four small systems")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 1, seconds: 0.5, pages: w.pages, quick: true, tr: newTracer(), outDir: t.TempDir()}
			rep, err := w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.problems) > 0 {
				t.Errorf("outputs not correct: %v", rep.problems)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			for _, d := range endToEnd {
				if v := rep.e2e[d.name]; d.name != "peak_rss_mib" && !(v > 0) {
					t.Errorf("%s = %g, want a positive value", d.name, v)
				}
			}
			for _, p := range probeNames {
				if v := rep.layer[p+"_ns"]; !(v > 0) {
					t.Errorf("probe %s = %g ns/op", p, v)
				}
			}
			path, err := e.tr.write(e.outDir, w.name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) < 3 {
				t.Errorf("trace file: %d spans, err %v", len(doc.Spans), err)
			}
			left, _ := filepath.Glob(filepath.Join(e.outDir, "*-*"))
			if len(left) != 1 { // the trace file only
				t.Errorf("left behind in the out directory: %v", left)
			}
		})
	}
}

// TestDefinitionMatchesBenchmarkJSON keeps BENCHMARK.json at the root of the
// repository, which the driver reads, equal to the tables this program runs
// by.
func TestDefinitionMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var def struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Command, []string{"go", "run", "-C", "bench", "."}) || !reflect.DeepEqual(def.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", def.Command, def.Paths)
	}
	if def.RunSeconds != 12 {
		t.Errorf("run_seconds %g, the -seconds default is 12", def.RunSeconds)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, def.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d is %+v, want %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound %v, want %g in (0, 0.25]", d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd, true)
	check("per_layer", def.PerLayer, perLayer, false)
	names := append([]string(nil), probeNames...)
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Errorf("probe %s is named twice", names[i])
		}
	}
}
