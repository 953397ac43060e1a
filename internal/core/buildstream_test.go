package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// worldSource adapts a fully materialized webgen.World to the PageSource
// interface, so the streamed pipeline can be compared head-to-head with the
// crawl pipeline over the identical corpus.
type worldSource struct{ w *webgen.World }

func (s worldSource) StreamPages(emit func(url, html string) error) error {
	for _, p := range s.w.Pages() {
		if err := emit(p.URL, p.HTML); err != nil {
			return err
		}
	}
	return nil
}

func streamBuilder(w *webgen.World, pageStore *webgraph.Store) *Builder {
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	cfg := StandardConfig(reg, w.Cities(), webgen.Cuisines())
	cfg.PageStore = pageStore
	return &Builder{Fetcher: w, Cfg: cfg}
}

// TestBuildStreamMatchesBuild: over the same corpus, the bounded-memory
// streamed pipeline must produce the same web of concepts as the crawl
// pipeline — same records (IDs, versions, values, provenance), same
// associations, same ranked search results. Streaming is an execution
// strategy, not a semantic variant.
func TestBuildStreamMatchesBuild(t *testing.T) {
	w := smallWorld()

	full := streamBuilder(w, nil)
	wocBuild, statsBuild, err := full.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer wocBuild.Close()

	streamed := streamBuilder(w, nil)
	wocStream, statsStream, err := streamed.BuildStream(worldSource{w})
	if err != nil {
		t.Fatal(err)
	}
	defer wocStream.Close()

	if statsStream.PagesFetched != statsBuild.PagesFetched {
		t.Errorf("ingested %d pages, crawl fetched %d", statsStream.PagesFetched, statsBuild.PagesFetched)
	}
	if statsStream.Candidates != statsBuild.Candidates ||
		statsStream.RecordsStored != statsBuild.RecordsStored ||
		statsStream.ClustersMerged != statsBuild.ClustersMerged ||
		statsStream.PagesLinked != statsBuild.PagesLinked ||
		statsStream.ReviewRecords != statsBuild.ReviewRecords {
		t.Errorf("stats diverge:\nstream %+v\nbuild  %+v", statsStream, statsBuild)
	}
	if got, want := fingerprint(wocStream), fingerprint(wocBuild); got != want {
		t.Error("record store fingerprints diverge between BuildStream and Build")
	}
	if !reflect.DeepEqual(wocStream.Assoc, wocBuild.Assoc) {
		t.Error("Assoc maps diverge")
	}
	if !reflect.DeepEqual(wocStream.RevAssoc, wocBuild.RevAssoc) {
		t.Error("RevAssoc maps diverge")
	}
	for _, q := range []string{"mexican cupertino", "pizza menu", "sushi san jose", "best thai"} {
		if got, want := searchIDs(wocStream.DocIndex, q, 10), searchIDs(wocBuild.DocIndex, q, 10); !reflect.DeepEqual(got, want) {
			t.Errorf("doc search %q diverges:\n got %v\nwant %v", q, got, want)
		}
		if got, want := searchIDs(wocStream.RecIndex, q, 10), searchIDs(wocBuild.RecIndex, q, 10); !reflect.DeepEqual(got, want) {
			t.Errorf("rec search %q diverges:\n got %v\nwant %v", q, got, want)
		}
	}
}

// TestHeavyTailBuildPinned pins what a streamed build of the 2k-page
// heavy-tail world under the scale configuration produces — its counts, the
// record store fingerprint, both association maps, and the size and ranked
// answers of both indexes — at one worker and at eight. A change to how the
// pipeline or the index is put together must leave every value where it is.
func TestHeavyTailBuildPinned(t *testing.T) {
	w := webgen.NewStreamWorld(webgen.HeavyTailConfig(2000))
	for _, workers := range []int{1, 8} {
		reg := lrec.NewRegistry()
		webgen.RegisterScaleConcepts(reg)
		cfg := ScaleConfig(reg, w.Cities(), webgen.Cuisines())
		cfg.Workers = workers
		b := &Builder{Fetcher: w, Cfg: cfg}
		woc, st, err := b.BuildStream(w)
		if err != nil {
			t.Fatal(err)
		}
		counts := fmt.Sprintf("%d pages / %d candidates / %d records / %d linked / %d reviews",
			st.PagesFetched, st.Candidates, st.RecordsStored, st.PagesLinked, st.ReviewRecords)
		if want := "1997 pages / 3193 candidates / 1053 records / 991 linked / 991 reviews"; counts != want {
			t.Errorf("workers %d: %s, want %s", workers, counts, want)
		}
		for _, c := range []struct{ what, got, want string }{
			{"fingerprint", fingerprint(woc), "81f8ee6ef6b0e70deb46f85e9596cbdce4c398aefde1f2cfa292aef4d21375a7"},
			{"Assoc", assocDigest(woc.Assoc), "31dd584da93274fd04f3ea480cc0f2314e5a6d09bc8d12f57ba5ead702309095"},
			{"RevAssoc", assocDigest(woc.RevAssoc), "4f9765140f9ef55f220418ffc0a6267e9784a001b5d2990a046eed7a6aca2d90"},
		} {
			if c.got != c.want {
				t.Errorf("workers %d: %s %s, want %s", workers, c.what, c.got, c.want)
			}
		}
		sizes := fmt.Sprintf("docs %d docs / %d postings, recs %d docs / %d postings",
			woc.DocIndex.Len(), woc.DocIndex.Postings(), woc.RecIndex.Len(), woc.RecIndex.Postings())
		if want := "docs 1997 docs / 76099 postings, recs 1053 docs / 18770 postings"; sizes != want {
			t.Errorf("workers %d: %s, want %s", workers, sizes, want)
		}
		queries := pinnedQueries(woc, w.Cities())
		for _, c := range []struct {
			what string
			ix   *index.Index
			want string
		}{
			{"DocIndex", woc.DocIndex, "c08b625ee2e7acaef4500d67ce31379787b6e0ba3a0ca335b230a7200ddd7543"},
			{"RecIndex", woc.RecIndex, "658d40c2a17792de8acdda7084b5203861d32ae42747899ba3388201854732bc"},
		} {
			if got := searchDigest(c.ix, queries); got != c.want {
				t.Errorf("workers %d: %s top-10 digest over %d queries %s, want %s",
					workers, c.what, len(queries), got, c.want)
			}
		}
		woc.Close()
	}
}

// pinnedQueries draws a fixed query list from a build: every record's name in
// sorted-ID order, then every "cuisine city" pair.
func pinnedQueries(woc *WebOfConcepts, cities []string) []string {
	var qs []string
	woc.Records.Scan(func(r *lrec.Record) bool {
		if name := r.Get("name"); name != "" {
			qs = append(qs, name)
		}
		return true
	})
	for _, cu := range webgen.Cuisines() {
		for _, city := range cities {
			qs = append(qs, cu+" "+city)
		}
	}
	return qs
}

// searchDigest hashes the top-10 results of every query, each result written
// as its ID and the bits of its score, so a digest match means bit-identical
// rankings.
func searchDigest(ix *index.Index, queries []string) string {
	h := sha256.New()
	var bits [8]byte
	for _, q := range queries {
		fmt.Fprintf(h, "%s\n", q)
		for _, r := range ix.Search(q, 10) {
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(r.Score))
			fmt.Fprintf(h, "%s\t", r.ID)
			h.Write(bits[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// assocDigest hashes an association map: one line per key in sorted order,
// the key, a tab and its values joined by commas.
func assocDigest(m map[string][]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\t%s\n", k, strings.Join(m[k], ","))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBuildStreamProgress: the Progress callback fires for every stage with
// monotonic done counts.
func TestBuildStreamProgress(t *testing.T) {
	w := smallWorld()
	var calls atomic.Int64
	stages := make(map[string]bool)
	var mu sync.Mutex
	b := streamBuilder(w, nil)
	b.Cfg.Progress = func(stage string, done, total int) {
		calls.Add(1)
		mu.Lock()
		stages[stage] = true
		mu.Unlock()
		if done < 0 || total < 0 {
			t.Errorf("negative progress: %s %d/%d", stage, done, total)
		}
	}
	woc, _, err := b.BuildStream(worldSource{w})
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	if calls.Load() == 0 {
		t.Fatal("Progress never called")
	}
	for _, s := range []string{"ingest", "extract", "resolve", "index"} {
		if !stages[s] {
			t.Errorf("no progress reported for stage %s", s)
		}
	}
}
