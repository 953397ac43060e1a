package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// buildAt runs the standard pipeline over a freshly generated small world
// with the given worker-pool size, backing the store durably in dir when it
// is not empty.
func buildAt(t *testing.T, workers int, dir string) (*WebOfConcepts, *BuildStats, *Builder) {
	t.Helper()
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	cfg := StandardConfig(reg, w.Cities(), webgen.Cuisines())
	cfg.Workers = workers
	cfg.StoreDir = dir
	b := &Builder{Fetcher: w, Cfg: cfg}
	woc, stats, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatalf("build (workers=%d): %v", workers, err)
	}
	return woc, stats, b
}

// snapshotRecords flattens every stored record — ID, concept, version, and
// each attribute value with its full provenance — into a canonical string,
// so two stores compare byte-for-byte.
func snapshotRecords(woc *WebOfConcepts) []string {
	var out []string
	woc.Records.Scan(func(r *lrec.Record) bool {
		var b strings.Builder
		fmt.Fprintf(&b, "%s|%s|v%d", r.ID, r.Concept, r.Version)
		for _, k := range r.Keys() {
			for _, v := range r.All(k) {
				fmt.Fprintf(&b, "|%s=%s conf=%.6f sup=%d prov=%s",
					k, v.Value, v.Confidence, v.Support, v.Prov.String())
			}
		}
		out = append(out, b.String())
		return true
	})
	return out
}

// fingerprint hashes the canonical record stream, so whole stores compare as
// one value and divergence messages stay small.
func fingerprint(woc *WebOfConcepts) string {
	h := sha256.New()
	for _, line := range snapshotRecords(woc) {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestParallelBuildDeterminism is the fan-in contract: the same seed and
// corpus must yield identical record IDs and versions, Assoc/RevAssoc maps,
// and search results whether the pipeline runs on one worker or eight.
// CI runs this under -race, which also exercises the concurrent extract,
// link, and index stages for data races.
func TestParallelBuildDeterminism(t *testing.T) {
	woc1, stats1, _ := buildAt(t, 1, "")
	woc8, stats8, _ := buildAt(t, 8, "")
	defer woc1.Close()
	defer woc8.Close()

	if stats1.Workers != 1 || stats8.Workers != 8 {
		t.Fatalf("workers annotation = %d/%d, want 1/8", stats1.Workers, stats8.Workers)
	}
	if stats1.Candidates != stats8.Candidates ||
		stats1.RecordsStored != stats8.RecordsStored ||
		stats1.ClustersMerged != stats8.ClustersMerged ||
		stats1.PagesLinked != stats8.PagesLinked ||
		stats1.ReviewRecords != stats8.ReviewRecords {
		t.Errorf("stats diverge: 1 worker %+v, 8 workers %+v", stats1, stats8)
	}

	r1, r8 := snapshotRecords(woc1), snapshotRecords(woc8)
	if len(r1) != len(r8) {
		t.Fatalf("record count diverges: %d vs %d", len(r1), len(r8))
	}
	for i := range r1 {
		if r1[i] != r8[i] {
			t.Fatalf("record %d diverges:\n  w1: %s\n  w8: %s", i, r1[i], r8[i])
		}
	}

	if !reflect.DeepEqual(woc1.Assoc, woc8.Assoc) {
		t.Error("Assoc maps diverge between worker counts")
	}
	if !reflect.DeepEqual(woc1.RevAssoc, woc8.RevAssoc) {
		t.Error("RevAssoc maps diverge between worker counts")
	}

	if woc1.DocIndex.Len() != woc8.DocIndex.Len() || woc1.DocIndex.Terms() != woc8.DocIndex.Terms() {
		t.Errorf("doc index diverges: %d docs/%d terms vs %d docs/%d terms",
			woc1.DocIndex.Len(), woc1.DocIndex.Terms(), woc8.DocIndex.Len(), woc8.DocIndex.Terms())
	}
	probes := []string{
		"mexican cupertino", "pizza menu", "sushi san jose",
		"best thai", "restaurant review", "gochi",
	}
	for _, q := range probes {
		for _, pair := range []struct {
			name string
			a, b *index.Index
		}{
			{"doc", woc1.DocIndex, woc8.DocIndex},
			{"rec", woc1.RecIndex, woc8.RecIndex},
		} {
			got1, got8 := searchIDs(pair.a, q, 10), searchIDs(pair.b, q, 10)
			if !reflect.DeepEqual(got1, got8) {
				t.Errorf("%s search %q diverges:\n  w1: %v\n  w8: %v", pair.name, q, got1, got8)
			}
		}
	}
}

// TestShardWorkerMatrixDeterminism is the determinism bar over the whole
// worker matrix: the store fingerprint, build stats and composed epoch must
// be identical at every worker count over the store's one partition — the
// pool is an execution detail, never an output detail.
func TestShardWorkerMatrixDeterminism(t *testing.T) {
	base, baseStats, _ := buildAt(t, 1, "")
	defer base.Close()
	baseFP, baseEpoch := fingerprint(base), base.Epoch()
	for _, workers := range []int{2, 8} {
		woc, stats, _ := buildAt(t, workers, "")
		tag := fmt.Sprintf("workers=%d", workers)
		if got := fingerprint(woc); got != baseFP {
			t.Errorf("%s: store fingerprint diverges from workers=1", tag)
		}
		if stats.RecordsStored != baseStats.RecordsStored ||
			stats.Candidates != baseStats.Candidates ||
			stats.ClustersMerged != baseStats.ClustersMerged {
			t.Errorf("%s: stats diverge: %+v vs %+v", tag, stats, baseStats)
		}
		// The composed epoch counts mutations, so it too is invariant.
		if got := woc.Epoch(); got != baseEpoch {
			t.Errorf("%s: composed epoch %d diverges from %d", tag, got, baseEpoch)
		}
		woc.Close()
	}
}

// TestWALByteIdentityAcrossWorkers: the store's durable on-disk artifacts
// (WAL and snapshot) must be byte-identical no matter how many workers
// built them — the strongest form of the determinism contract.
func TestWALByteIdentityAcrossWorkers(t *testing.T) {
	dirs := map[int]string{}
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		woc, _, _ := buildAt(t, workers, dir)
		if err := woc.Close(); err != nil {
			t.Fatalf("close (workers=%d): %v", workers, err)
		}
		dirs[workers] = dir
	}
	files := func(dir string) []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		return names
	}
	f1, f8 := files(dirs[1]), files(dirs[8])
	if !reflect.DeepEqual(f1, f8) {
		t.Fatalf("directory listings diverge: %v vs %v", f1, f8)
	}
	for _, name := range f1 {
		a, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[8], name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between 1 and 8 workers (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}

// searchIDs flattens a ranked search into scored ID strings for comparison.
func searchIDs(ix *index.Index, q string, k int) []string {
	var out []string
	for _, r := range ix.Search(q, k) {
		out = append(out, fmt.Sprintf("%s@%.9f", r.ID, r.Score))
	}
	return out
}

// TestParallelRefreshDeterminism runs the same refresh (a slice of URLs,
// some of them dead) at both worker counts against identically built webs
// and asserts the resulting stores agree.
func TestParallelRefreshDeterminism(t *testing.T) {
	woc1, _, b1 := buildAt(t, 1, "")
	woc8, _, b8 := buildAt(t, 8, "")
	defer woc1.Close()
	defer woc8.Close()

	urls := woc1.Pages.URLs()
	if len(urls) > 200 {
		urls = urls[:200]
	}
	urls = append([]string{"gone.example/nowhere"}, urls...)
	st1, err := b1.Refresh(woc1, urls)
	if err != nil {
		t.Fatal(err)
	}
	st8, err := b8.Refresh(woc8, urls)
	if err != nil {
		t.Fatal(err)
	}
	if st1.PagesChecked != st8.PagesChecked || st1.PagesUnchanged != st8.PagesUnchanged ||
		st1.PagesGone != st8.PagesGone || st1.RecordsCreated != st8.RecordsCreated ||
		st1.RecordsUpdated != st8.RecordsUpdated {
		t.Errorf("refresh stats diverge: %+v vs %+v", st1, st8)
	}
	r1, r8 := snapshotRecords(woc1), snapshotRecords(woc8)
	if !reflect.DeepEqual(r1, r8) {
		t.Error("stores diverge after refresh at different worker counts")
	}
}

func TestTruncateBytes(t *testing.T) {
	cases := []struct {
		in   string
		max  int
		want string
	}{
		{"hello", 280, "hello"},
		{"hello", 4, "hell"},
		{"héllo", 2, "h"},  // é spans bytes 1-2; cut backs up
		{"héllo", 3, "hé"}, // boundary exactly after the rune
		{"日本語", 4, "日"},    // 3-byte runes
		{"日本語", 3, "日"},
		{"日本語", 2, ""},
		{"", 10, ""},
	}
	for _, c := range cases {
		got := truncateBytes(c.in, c.max)
		if got != c.want {
			t.Errorf("truncateBytes(%q, %d) = %q, want %q", c.in, c.max, got, c.want)
		}
		if !utf8.ValidString(got) {
			t.Errorf("truncateBytes(%q, %d) = %q is not valid UTF-8", c.in, c.max, got)
		}
	}
}

// corpusFetcher serves a handful of handwritten pages.
type corpusFetcher map[string]string

func (f corpusFetcher) Fetch(u string) (string, error) {
	if html, ok := f[u]; ok {
		return html, nil
	}
	return "", webgraph.ErrNotFound
}

// TestLinkTextSnippetRuneBoundary builds a two-site web whose review page is
// long multi-byte UTF-8 text positioned so the 280-byte snippet budget lands
// mid-rune, and asserts the stored review snippet is still valid UTF-8.
func TestLinkTextSnippetRuneBoundary(t *testing.T) {
	item := func(name, street, zip, phone string) string {
		return fmt.Sprintf(`<div class="hit"><a href="/biz/x">%s</a> <span>%s, Cupertino %s</span> <span>%s</span></div>`,
			name, street, zip, phone)
	}
	review := "Dinner at Café München Bistro on Alma in Cupertino was superbe — " +
		strings.Repeat("crème brûlée, weißwurst, jalapeño tapenade, ", 12) + "truly mémorable."
	fetcher := corpusFetcher{
		"guide.example/": `<html><head><title>Guide</title></head><body>` +
			item("Café München Bistro", "12 Alma St", "95014", "(408) 555-0101") +
			item("Blue Palm Diner", "99 Castro St", "95014", "(408) 555-0102") +
			`</body></html>`,
		"blog.example/review": `<html><head><title>A night out</title></head><body><p>` +
			review + `</p></body></html>`,
	}

	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	cfg := StandardConfig(reg, []string{"Cupertino"}, []string{"german"})
	cfg.Workers = 4
	b := &Builder{Fetcher: fetcher, Cfg: cfg}
	woc, stats, err := b.Build([]string{"guide.example/", "blog.example/review"})
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()

	// Fixture sanity: the review text must exceed the snippet budget and
	// byte 280 must fall inside a multi-byte rune, or the test proves nothing.
	p, err := woc.Pages.Get("blog.example/review")
	if err != nil {
		t.Fatal(err)
	}
	text := pageMainText(p)
	if len(text) <= 280 {
		t.Fatalf("fixture: review text is %d bytes, need > 280", len(text))
	}
	if utf8.RuneStart(text[280]) {
		t.Fatalf("fixture: byte 280 of the review text is a rune boundary; adjust the fixture")
	}
	if stats.PagesLinked == 0 || stats.ReviewRecords == 0 {
		t.Fatalf("review page was not linked: %+v", stats)
	}

	var reviews []*lrec.Record
	woc.Records.Scan(func(r *lrec.Record) bool {
		if r.Concept == "review" {
			reviews = append(reviews, r)
		}
		return true
	})
	if len(reviews) == 0 {
		t.Fatal("no review records stored")
	}
	for _, r := range reviews {
		snippet := r.Get("text")
		if len(snippet) > 280 {
			t.Errorf("snippet is %d bytes, want <= 280", len(snippet))
		}
		if !utf8.ValidString(snippet) {
			t.Errorf("snippet is not valid UTF-8: %q", snippet)
		}
	}
}
