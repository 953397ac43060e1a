package core

import (
	"testing"
	"time"

	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// BenchmarkExtractStage times the whole extract stage the way the streamed
// build runs it — memo-less, over a disk page store holding the 2k-page
// heavy-tail world, scale configuration, pool size GOMAXPROCS — and reports
// pages/s and busy-workers: the summed wall time of the page tasks over the
// stage's wall time, i.e. how many workers the stage kept busy. Run it with
// -cpu 1,2: the first line's busy-workers is the serial share (the fold and
// the barriers are what is missing from 1), the second's, over 2, is the
// stage's parallel efficiency.
func BenchmarkExtractStage(b *testing.B) {
	w, corpus, _ := heavyTailCorpus(b)
	reg := lrec.NewRegistry()
	webgen.RegisterScaleConcepts(reg)
	ps, err := webgraph.OpenDiskStore(b.TempDir(), webgraph.DiskOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer ps.Close()
	for _, u := range sortedKeys(corpus) {
		ps.PutRaw(u, corpus[u])
	}
	bld := &Builder{Cfg: ScaleConfig(reg, w.Cities(), webgen.Cuisines())}
	hosts := ps.Hosts()

	var tasks time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg := newConceptGroups(nil)
		st := bld.extractPages(ps, hosts, nil, cg, nil)
		if cg.total == 0 || st.pagesAnalyzed != len(corpus) {
			b.Fatalf("%d candidates from %d of %d pages", cg.total, st.pagesAnalyzed, len(corpus))
		}
		tasks += st.taskTime
	}
	b.ReportMetric(float64(b.N*len(corpus))/b.Elapsed().Seconds(), "pages/s")
	b.ReportMetric(tasks.Seconds()/b.Elapsed().Seconds(), "busy-workers")
}
