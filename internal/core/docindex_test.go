package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/obs"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// heavyTailDiskStore holds the 2k-page heavy-tail corpus in a disk page
// store.
func heavyTailDiskStore(t testing.TB, corpus corpusFetcher) *webgraph.Store {
	t.Helper()
	ps, err := webgraph.OpenDiskStore(t.TempDir(), webgraph.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	for _, u := range sortedKeys(corpus) {
		ps.PutRaw(u, corpus[u])
	}
	if err := ps.Flush(); err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestDocIndexOrderIsWorkerAndWindowInvariant: the document index the
// extract stage's page tasks feed and the merger goroutine fills answers
// every query exactly — same documents, same order, same score bits — as an
// index filled by a serial Add loop over the pages in fold order (sorted
// host, then site-page order), at workers 1/2/8 × windows of one host, 64
// pages and the whole corpus × 1 and 4 shards.
func TestDocIndexOrderIsWorkerAndWindowInvariant(t *testing.T) {
	w, corpus, _ := heavyTailCorpus(t)
	ps := heavyTailDiskStore(t, corpus)
	reg := lrec.NewRegistry()
	webgen.RegisterScaleConcepts(reg)
	cfg := ScaleConfig(reg, w.Cities(), webgen.Cuisines())

	queries := []string{"menu", "review", "hotel rooms", "the", "zzzunknown", ""}
	for i, city := range w.Cities() {
		cuisines := webgen.Cuisines()
		queries = append(queries, cuisines[i%len(cuisines)]+" "+city, city)
	}
	type answer struct {
		ids  []string
		bits []uint64
	}
	answers := func(ix *index.Sharded) []answer {
		out := make([]answer, len(queries))
		for i, q := range queries {
			for _, r := range ix.Search(q, 0) {
				out[i].ids = append(out[i].ids, r.ID)
				out[i].bits = append(out[i].bits, math.Float64bits(r.Score))
			}
		}
		return out
	}

	for _, shards := range []int{1, 4} {
		serial := index.NewSharded(shards)
		for _, host := range ps.Hosts() {
			for _, u := range ps.HostPages(host) {
				p, err := ps.Get(u)
				if err != nil {
					t.Fatal(err)
				}
				serial.Add(pageDocument(p))
			}
		}
		want := answers(serial)
		hits := 0
		for _, a := range want {
			hits += len(a.ids)
		}
		if serial.Len() != len(corpus) || hits < 1000 {
			t.Fatalf("the serial index holds %d of %d pages and the queries touch %d: the test would prove nothing",
				serial.Len(), len(corpus), hits)
		}

		for _, workers := range []int{1, 2, 8} {
			for _, window := range []int{1, 64, 1 << 30} {
				point := fmt.Sprintf("shards %d, workers %d, window %d", shards, workers, window)
				cfg.Workers, cfg.Shards = workers, shards
				b := &Builder{Cfg: cfg, extractWindow: window}
				ix := index.NewSharded(shards)
				feed := feedDocIndex(ix, nil)
				b.extractPages(ps, ps.Hosts(), nil, newConceptGroups(nil), feed)
				feed.join(context.Background())
				if ix.Len() != serial.Len() || ix.Postings() != serial.Postings() {
					t.Fatalf("%s: %d documents and %d postings, serial loop %d and %d",
						point, ix.Len(), ix.Postings(), serial.Len(), serial.Postings())
				}
				for i, got := range answers(ix) {
					if !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("%s: query %q answers differently from the serial Add loop", point, queries[i])
					}
				}
			}
		}
	}

	// A feed restricted to some URLs (a maintenance pass's changed pages)
	// indexes those and nothing else, whatever the extract stage reads.
	only := map[string]bool{}
	for i, u := range sortedKeys(corpus) {
		if i%97 == 0 {
			only[u] = true
		}
	}
	b := &Builder{Cfg: cfg}
	ix := index.NewSharded(1)
	feed := feedDocIndex(ix, only)
	b.extractPages(ps, ps.Hosts(), nil, newConceptGroups(nil), feed)
	feed.join(context.Background())
	if ix.Len() != len(only) {
		t.Fatalf("restricted feed indexed %d pages, want %d", ix.Len(), len(only))
	}
	for u := range only {
		if !ix.Has(u) {
			t.Fatalf("restricted feed did not index %s", u)
		}
	}
}

// TestStreamedBuildParsesEachPageOnce: a streamed build reads and parses
// every page exactly once, in the extract stage's page task, which also
// prepares its index document; the only other parses are the link stage's,
// of the pages resolve left unassociated. The page store keeps no parsed
// page, so no read can be answered by luck, and the count is the same over
// a store the caller opens ("disk") and the one the build opens for itself
// when Config.PageStore is nil ("memory", the name of the in-memory store
// that path once used). The moved work stays visible: the
// index stage carries the merger's time and the time it waited for it as
// child spans.
func TestStreamedBuildParsesEachPageOnce(t *testing.T) {
	w, corpus, _ := heavyTailCorpus(t)
	parses := map[string]int{}
	for _, backend := range []string{"disk", "memory"} {
		t.Run(backend, func(t *testing.T) {
			parses[backend] = streamedBuildParses(t, w, corpus, backend == "disk")
		})
	}
	if parses["disk"] != parses["memory"] {
		t.Errorf("the build parsed %d pages over the caller's page store, %d over its own", parses["disk"], parses["memory"])
	}
}

// streamedBuildParses runs one streamed build over a page store the test
// opens (disk) or the build's own, checks its parse count and index spans,
// and returns the count.
func streamedBuildParses(t *testing.T, w *webgen.StreamWorld, corpus corpusFetcher, disk bool) int {
	reg := lrec.NewRegistry()
	webgen.RegisterScaleConcepts(reg)
	cfg := ScaleConfig(reg, w.Cities(), webgen.Cuisines())
	m := obs.NewRegistry()
	cfg.Metrics = m
	if disk {
		ps, err := webgraph.OpenDiskStore(t.TempDir(), webgraph.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		cfg.PageStore = ps
	}
	b := &Builder{Fetcher: corpus, Cfg: cfg}
	woc, stats, err := b.BuildStream(corpusSource(corpus))
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()

	unassociated := stats.PagesLinked // the link stage associates only pages resolve left bare
	for _, u := range woc.Pages.URLs() {
		if len(woc.Assoc[u]) == 0 {
			unassociated++
		}
	}
	if stats.PagesLinked == 0 || unassociated == stats.PagesLinked {
		t.Fatalf("%d pages linked of %d unassociated: the corpus exercises nothing", stats.PagesLinked, unassociated)
	}
	if want := len(corpus) + unassociated; stats.PageParses != want {
		t.Errorf("the build parsed %d pages, want %d pages + %d link candidates = %d",
			stats.PageParses, len(corpus), unassociated, want)
	}
	st := woc.Pages.Stats()
	if st.Gets != st.Parses || int(st.Parses) != stats.PageParses {
		t.Errorf("page store counters %+v do not add up to %d parses", st, stats.PageParses)
	}
	if got := m.Snapshot().Counters["build.pages.parsed"]; got != int64(stats.PageParses) {
		t.Errorf("build.pages.parsed = %d, want %d", got, stats.PageParses)
	}
	if woc.DocIndex.Len() != len(corpus) {
		t.Errorf("document index holds %d of %d pages", woc.DocIndex.Len(), len(corpus))
	}

	ixStage := stats.Trace.Find("index")
	if ixStage == nil || len(stats.Trace.Children) != 5 {
		t.Fatalf("trace: %+v", stats.Trace)
	}
	merge, wait := ixStage.Find("docindex.merge"), ixStage.Find("docindex.wait")
	if merge == nil || wait == nil || merge.Duration <= 0 {
		t.Fatalf("index stage lacks the merger's spans: %+v", ixStage)
	}
	if wait.Duration > ixStage.Duration {
		t.Errorf("waited %v for the merger inside a %v index stage", wait.Duration, ixStage.Duration)
	}
	return stats.PageParses
}

// corpusSource streams a rendered corpus in sorted-URL order.
type corpusSource corpusFetcher

func (c corpusSource) StreamPages(emit func(url, html string) error) error {
	for _, u := range sortedKeys(corpusFetcher(c)) {
		if err := emit(u, c[u]); err != nil {
			return err
		}
	}
	return nil
}
