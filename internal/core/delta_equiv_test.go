package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// mutableFetcher serves a world whose pages can be overlaid (content
// change) or marked gone (fetch failure) between refresh passes.
type mutableFetcher struct {
	w  webgraph.Fetcher
	mu sync.Mutex

	overlay map[string]string
	gone    map[string]bool
}

func newMutableFetcher(w webgraph.Fetcher) *mutableFetcher {
	return &mutableFetcher{w: w, overlay: map[string]string{}, gone: map[string]bool{}}
}

func (m *mutableFetcher) Fetch(url string) (string, error) {
	m.mu.Lock()
	gone := m.gone[url]
	html, ok := m.overlay[url]
	m.mu.Unlock()
	if gone {
		return "", fmt.Errorf("gone: %s", url)
	}
	if ok {
		return html, nil
	}
	return m.w.Fetch(url)
}

func (m *mutableFetcher) setOverlay(url, html string) {
	m.mu.Lock()
	m.overlay[url] = html
	m.mu.Unlock()
}

func (m *mutableFetcher) setGone(url string, gone bool) {
	m.mu.Lock()
	if gone {
		m.gone[url] = true
	} else {
		delete(m.gone, url)
	}
	m.mu.Unlock()
}

// contentFingerprint hashes the store at the content level: IDs, concepts,
// and each attribute's value set with confidence and source provenance.
// Execution history — Version, Seq, Support — is excluded, and values are
// compared as sorted sets: a delta pass that strips and re-adds a value
// reorders it and replays versions, but must converge to the same content
// a fresh build produces.
func contentFingerprint(woc *WebOfConcepts) string {
	h := sha256.New()
	woc.Records.Scan(func(r *lrec.Record) bool {
		var b strings.Builder
		fmt.Fprintf(&b, "%s|%s", r.ID, r.Concept)
		for _, k := range r.Keys() {
			var vals []string
			for _, v := range r.All(k) {
				vals = append(vals, fmt.Sprintf("%s=%s conf=%.6f src=%s ops=%s",
					k, v.Value, v.Confidence, v.Prov.SourceURL,
					strings.Join(v.Prov.Operators, "+")))
			}
			sort.Strings(vals)
			for _, v := range vals {
				b.WriteString("|")
				b.WriteString(v)
			}
		}
		h.Write([]byte(b.String()))
		h.Write([]byte{'\n'})
		return true
	})
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDeltaRefreshConvergesToRebuild is the maintenance-loop equivalence
// bar (§7.3): a sequence of incremental passes over changed, gone, and
// resurrected pages must land on the same store content, association maps,
// and bit-identical search results as a from-scratch build over the final
// corpus — at every worker count, starting from Build and from BuildStream
// (the store is one partition; subtest names keep its shards=1). This leans on the whole PR: physical index removal
// (stats shrink), the page-store delete (resurrection), the supersede stage
// (no stale values), and the relink stage (free-text pages follow their new
// content). A streamed build keeps no extraction memo, so from it the passes
// also run the memo's fill-on-first-touch path; so does a build written to a
// directory and reopened (Open), whose passes start from derived
// associations and refilled indexes.
func TestDeltaRefreshConvergesToRebuild(t *testing.T) {
	queries := []string{
		"mexican cupertino", "pizza menu", "sushi san jose",
		"best thai", "restaurant review", "gochi", "phone",
	}
	type combo struct {
		workers      int
		stream, open bool
	}
	combos := []combo{{1, false, false}, {8, false, false}, {1, true, false}, {8, true, false}, {8, false, true}}

	var baseFP string
	for _, cb := range combos {
		cb := cb
		name := fmt.Sprintf("workers=%d shards=1", cb.workers)
		if cb.stream {
			name = "BuildStream " + name
		}
		if cb.open {
			name = "Open " + name
		}
		t.Run(name, func(t *testing.T) {
			w := smallWorld()
			reg := lrec.NewRegistry()
			webgen.RegisterConcepts(reg)
			mf := newMutableFetcher(w)
			cfg := StandardConfig(reg, w.Cities(), webgen.Cuisines())
			cfg.Workers = cb.workers
			b := &Builder{Fetcher: mf, Cfg: cfg}
			build := func() (*WebOfConcepts, *BuildStats, error) { return b.Build(w.SeedURLs()) }
			if cb.stream {
				build = func() (*WebOfConcepts, *BuildStats, error) { return b.BuildStream(worldSource{w}) }
			}
			if cb.open {
				// Build into a directory, then run the passes on the
				// system reopened from it.
				build = func() (*WebOfConcepts, *BuildStats, error) {
					dir := t.TempDir()
					b.Cfg.PageStore = openDirPages(t, dir, webgraph.DiskOptions{})
					written, _, err := b.Build(w.SeedURLs())
					if err != nil {
						return nil, nil, err
					}
					saveDir(t, written, dir)
					b = &Builder{Fetcher: mf, Cfg: cfg}
					return openDir(t, dir, b), nil, nil
				}
			}
			woc, _, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer woc.Close()

			for i, pass := range scriptedChurn(t, w, woc) {
				pass.apply(mf)
				st, err := b.Refresh(woc, pass.urls)
				if err != nil {
					t.Fatal(err)
				}
				if pass.last && st.PagesChanged != 1 {
					t.Fatalf("pass %d: changed resurrection not detected: %+v", i+1, st)
				}
			}

			// Full rebuild over the final corpus, same knobs.
			b2 := &Builder{Fetcher: mf, Cfg: cfg}
			woc2, _, err := b2.Build(w.SeedURLs())
			if err != nil {
				t.Fatal(err)
			}
			defer woc2.Close()

			deltaFP := requireConverged(t, woc, woc2, queries)

			// Every combination converges to the same state: compare the
			// first combo's fingerprint across the matrix.
			if baseFP == "" {
				baseFP = deltaFP
			} else if deltaFP != baseFP {
				t.Errorf("fingerprint diverges across the matrix")
			}
		})
	}
}

// scriptedPass is one pass of the scripted churn schedule: the change it
// makes to the web, then the URLs it refreshes. last marks the pass whose
// one changed page is a gone page resurrecting with new bytes.
type scriptedPass struct {
	apply func(mf *mutableFetcher)
	urls  []string
	last  bool
}

// scriptedChurn is the four-pass schedule of the delta-vs-rebuild bar over a
// system built from w: three restaurants with homepages and uniquely
// attributable records — one changes twice, one goes and returns
// unchanged, one goes and returns changed — and a free-text page the build
// linked to a record (it has a review record), whose text changes in the
// first pass. Every pass also refreshes ten unchanged pages.
func scriptedChurn(t *testing.T, w *webgen.World, woc *WebOfConcepts) []scriptedPass {
	t.Helper()
	var targets []*webgen.Restaurant
	for _, r := range w.Restaurants {
		if r.Homepage != "" {
			if recs := woc.Records.ByAttr("restaurant", "phone", r.Phone); len(recs) == 1 {
				targets = append(targets, r)
				if len(targets) == 3 {
					break
				}
			}
		}
	}
	if len(targets) < 3 {
		t.Fatal("world too small for churn scenario")
	}
	home := func(r *webgen.Restaurant) string {
		return strings.TrimSuffix(r.Homepage, "/") + "/"
	}
	h1, h2, h3 := home(targets[0]), home(targets[1]), home(targets[2])
	html := func(u string) string {
		p, ok := w.PageByURL(u)
		if !ok {
			t.Fatalf("page %s not in world", u)
		}
		return p.HTML
	}
	var reviewURL string
	for _, u := range woc.Pages.URLs() {
		if _, err := woc.Records.Get("review:" + textproc.NormalizeKey(u)); err == nil {
			reviewURL = u
			break
		}
	}
	if reviewURL == "" {
		t.Fatal("build linked no review pages; churn scenario needs one")
	}
	padding := woc.Pages.URLs()[:10] // unchanged cohort filler
	urls := func(us ...string) []string { return append(us, padding...) }
	return []scriptedPass{
		// Pass 1: phone change on h1, text change on the review page.
		{apply: func(mf *mutableFetcher) {
			mf.setOverlay(h1, strings.ReplaceAll(html(h1), targets[0].Phone, "408-555-1111"))
			mf.setOverlay(reviewURL, strings.Replace(html(reviewURL),
				"</body>", " The service was outstanding and the dining room lovely.</body>", 1))
		}, urls: urls(h1, reviewURL)},
		// Pass 2: h1 changes again; h2 goes dark.
		{apply: func(mf *mutableFetcher) {
			mf.setOverlay(h1, strings.ReplaceAll(html(h1), targets[0].Phone, "408-555-2222"))
			mf.setGone(h2, true)
		}, urls: urls(h1, h2)},
		// Pass 3: h2 resurrects byte-identical; h3 goes dark.
		{apply: func(mf *mutableFetcher) {
			mf.setGone(h2, false)
			mf.setGone(h3, true)
		}, urls: urls(h2, h3)},
		// Pass 4: h3 resurrects with a different phone.
		{apply: func(mf *mutableFetcher) {
			mf.setGone(h3, false)
			mf.setOverlay(h3, strings.ReplaceAll(html(h3), targets[2].Phone, "408-555-3333"))
		}, urls: urls(h3), last: true},
	}
}

// requireConverged fails unless the churned web of concepts equals the
// rebuilt one in store content, association maps, index sizes, document
// frequencies and ranked results for the queries. It returns the churned
// store's content fingerprint.
func requireConverged(t *testing.T, woc, woc2 *WebOfConcepts, queries []string) string {
	t.Helper()
	deltaFP, rebuildFP := contentFingerprint(woc), contentFingerprint(woc2)
	if deltaFP != rebuildFP {
		diffStores(t, woc, woc2)
		t.Errorf("store content diverges from rebuild")
	}
	if !reflect.DeepEqual(woc.Assoc, woc2.Assoc) {
		diffStringMaps(t, "Assoc", woc.Assoc, woc2.Assoc)
		t.Errorf("Assoc maps diverge from rebuild")
	}
	if !reflect.DeepEqual(woc.RevAssoc, woc2.RevAssoc) {
		diffStringMaps(t, "RevAssoc", woc.RevAssoc, woc2.RevAssoc)
		t.Errorf("RevAssoc maps diverge from rebuild")
	}
	if woc.DocIndex.Len() != woc2.DocIndex.Len() || woc.RecIndex.Len() != woc2.RecIndex.Len() {
		t.Errorf("index sizes diverge: doc %d/%d rec %d/%d",
			woc.DocIndex.Len(), woc2.DocIndex.Len(), woc.RecIndex.Len(), woc2.RecIndex.Len())
	}
	for _, q := range queries {
		for _, term := range strings.Fields(q) {
			if a, b := woc.DocIndex.DF(term), woc2.DocIndex.DF(term); a != b {
				t.Errorf("doc DF(%q) = %d, rebuild %d", term, a, b)
			}
		}
		if a, b := woc.DocIndex.Search(q, 10), woc2.DocIndex.Search(q, 10); !reflect.DeepEqual(a, b) {
			t.Errorf("doc search %q diverges from rebuild:\n delta: %+v\n fresh: %+v", q, a, b)
		}
		if a, b := woc.RecIndex.Search(q, 10), woc2.RecIndex.Search(q, 10); !reflect.DeepEqual(a, b) {
			t.Errorf("rec search %q diverges from rebuild:\n delta: %+v\n fresh: %+v", q, a, b)
		}
	}
	return deltaFP
}

// diffStringMaps prints the first few differing keys of two association maps.
func diffStringMaps(t *testing.T, label string, a, b map[string][]string) {
	t.Helper()
	shown := 0
	for k, v := range a {
		if shown >= 6 {
			return
		}
		if w, ok := b[k]; !ok || !reflect.DeepEqual(v, w) {
			t.Logf("%s[%s]: delta %v, fresh %v", label, k, v, b[k])
			shown++
		}
	}
	for k, w := range b {
		if shown >= 6 {
			return
		}
		if _, ok := a[k]; !ok {
			t.Logf("%s[%s]: delta <missing>, fresh %v", label, k, w)
			shown++
		}
	}
}

// diffStores prints the first few record-level differences to keep
// divergence messages debuggable.
func diffStores(t *testing.T, a, b *WebOfConcepts) {
	t.Helper()
	snap := func(woc *WebOfConcepts) map[string]string {
		out := map[string]string{}
		woc.Records.Scan(func(r *lrec.Record) bool {
			var sb strings.Builder
			for _, k := range r.Keys() {
				var vals []string
				for _, v := range r.All(k) {
					vals = append(vals, fmt.Sprintf("%s=%s conf=%.4f src=%s", k, v.Value, v.Confidence, v.Prov.SourceURL))
				}
				sort.Strings(vals)
				sb.WriteString(strings.Join(vals, ";") + "|")
			}
			out[r.ID] = sb.String()
			return true
		})
		return out
	}
	sa, sb := snap(a), snap(b)
	shown := 0
	for id, v := range sa {
		if shown >= 5 {
			break
		}
		if w, ok := sb[id]; !ok {
			t.Logf("only in delta: %s -> %s", id, v)
			shown++
		} else if w != v {
			t.Logf("differs: %s\n delta: %s\n fresh: %s", id, v, w)
			shown++
		}
	}
	for id, v := range sb {
		if shown >= 8 {
			break
		}
		if _, ok := sa[id]; !ok {
			t.Logf("only in rebuild: %s -> %s", id, v)
			shown++
		}
	}
}

// churnPass is one maintenance pass of a random schedule: what the web looks
// like when it runs (the overlay and gone sets to install) and the URLs to
// refresh.
type churnPass struct {
	overlay map[string]string
	gone    map[string]bool
	urls    []string
	what    []string
}

// randomChurn draws a schedule of passes over the corpus from the seed alone:
// text edits, value edits (a phone number the extractors read), pages going
// dark, dark pages coming back with the same and with different bytes, and
// layout mutations (a page re-rendered in another
// layout-vN variant, listings preferred — they are what a site's trusted
// signatures hang on). The last pass brings every dark page back, so the
// final corpus holds every page and a crawl reaches all of it. Each pass
// refreshes exactly the URLs it touched plus a few that did not change.
//
// Value edits are drawn only from valueEditable pages: see attributablePages.
func randomChurn(seed int64, urls []string, valueEditable map[string]bool, fetch func(string) string, passes int) []churnPass {
	rng := rand.New(rand.NewSource(seed))
	var listings []string
	for _, u := range urls {
		if strings.Contains(u, "/dir/") || strings.Contains(u, "/hotels/") {
			listings = append(listings, u)
		}
	}
	overlay := map[string]string{}
	gone := map[string]bool{}
	html := func(u string) string {
		if h, ok := overlay[u]; ok {
			return h
		}
		return fetch(u)
	}
	var out []churnPass
	for p := 0; p < passes; p++ {
		pass := churnPass{}
		touched := map[string]bool{}
		touch := func(u, what string) {
			if !touched[u] {
				touched[u] = true
				pass.urls = append(pass.urls, u)
			}
			pass.what = append(pass.what, what+" "+u)
		}
		dark := func() []string {
			var d []string
			for u := range gone {
				d = append(d, u)
			}
			sort.Strings(d)
			return d
		}
		last := p == passes-1
		for op := 0; op < 4+rng.Intn(5); op++ {
			u := urls[rng.Intn(len(urls))]
			switch k := rng.Intn(12); {
			case k >= 10:
				if re := webgen.EditPhone(html(u), rng.Intn(10000)); !gone[u] && valueEditable[u] && re != html(u) {
					overlay[u] = re
					touch(u, "rephone")
				}
			case k < 4:
				if !gone[u] {
					overlay[u] = webgen.EditText(html(u), fmt.Sprintf("Pass %d brought news of the kitchen.", p))
					touch(u, "edit")
				}
			case k < 6 && !last:
				if !gone[u] && len(gone) < 6 {
					gone[u] = true
					touch(u, "gone")
				}
			case k < 8:
				if d := dark(); len(d) > 0 {
					u = d[rng.Intn(len(d))]
					delete(gone, u)
					if k == 7 {
						overlay[u] = webgen.EditText(html(u), fmt.Sprintf("Back in pass %d.", p))
					}
					touch(u, fmt.Sprintf("resurrect(%d)", k))
				}
			default:
				if len(listings) > 0 && rng.Intn(3) > 0 {
					u = listings[rng.Intn(len(listings))]
				}
				if re := webgen.Relayout(html(u), rng.Intn(8)); !gone[u] && re != html(u) {
					overlay[u] = re
					touch(u, "relayout")
				}
			}
		}
		if last {
			for i, u := range dark() {
				delete(gone, u)
				if i%2 == 1 {
					overlay[u] = webgen.EditText(html(u), "Back for good.")
				}
				touch(u, "resurrect(final)")
			}
		}
		for len(pass.urls) < 12 {
			if u := urls[rng.Intn(len(urls))]; !touched[u] && !gone[u] {
				touched[u] = true
				pass.urls = append(pass.urls, u)
			}
		}
		pass.overlay, pass.gone = map[string]string{}, map[string]bool{}
		for u, h := range overlay {
			pass.overlay[u] = h
		}
		for u := range gone {
			pass.gone[u] = true
		}
		out = append(out, pass)
	}
	return out
}

// attributablePages returns the pages that are a provenance source of every
// record their own candidates carry the ID of. A value edit on any other page
// diverges from a rebuild — found by this test at seed 2, on the parent of
// the change that added it as much as on the change: a detail page whose
// every value an earlier-folded listing also asserts leaves no provenance in
// the record (value dedupe keeps the earlier source and the higher
// confidence), so it is not in the record's lineage. When its phone changes
// the record is not retired: it keeps the confidence the page no longer
// lends it, and the page's new candidate, with another synthesized ID,
// upserts into it by entity match under the old ID, where a rebuild resolves
// the two candidates to the lowest ID. DESIGN §12 lists it as a known edge.
func attributablePages(b *Builder, woc *WebOfConcepts) map[string]bool {
	ok := make(map[string]bool)
	for _, c := range b.refExtractHosts(woc.Pages, nil) {
		rec, err := woc.Records.Get(c.SynthesizeID())
		attributed := err == nil && sourcedFrom(rec, c.SourceURL)
		if was, seen := ok[c.SourceURL]; !seen || was {
			ok[c.SourceURL] = attributed
		}
	}
	return ok
}

// TestDeltaRefreshConvergesToRebuildRandomChurn is the equivalence bar on
// unscripted input: seeded random passes over the heavy-tail world under the
// scale configuration — edits, gone pages, resurrections, layout mutations —
// at workers {1, 8}, each landing on the store content,
// association maps and bit-identical search results of one from-scratch
// build over the seed's final corpus. A failure names the seed.
func TestDeltaRefreshConvergesToRebuildRandomChurn(t *testing.T) {
	w, corpus, _ := heavyTailCorpus(t)
	reg := lrec.NewRegistry()
	webgen.RegisterScaleConcepts(reg)
	base := ScaleConfig(reg, w.Cities(), webgen.Cuisines())
	city := w.Cities()[0]
	queries := []string{"thai " + city, "pizza menu", "hotel " + city, "restaurants", "phone", "news kitchen", "directory"}
	build := func(f webgraph.Fetcher, workers int) (*Builder, *WebOfConcepts) {
		cfg := base
		cfg.Workers = workers
		b := &Builder{Fetcher: f, Cfg: cfg}
		woc, _, err := b.Build(w.SeedURLs())
		if err != nil {
			t.Fatal(err)
		}
		return b, woc
	}
	fb, first := build(corpus, 8)
	urls := first.Pages.URLs()
	valueEditable := attributablePages(fb, first)
	first.Close()

	for _, seed := range []int64{2, 10} {
		passes := randomChurn(seed, urls, valueEditable, func(u string) string { return corpus[u] }, 6)
		final := newMutableFetcher(corpus)
		final.overlay, final.gone = passes[len(passes)-1].overlay, passes[len(passes)-1].gone
		_, rebuilt := build(final, 8)

		var reinduced, replayed int
		for _, workers := range []int{1, 8} {
			mf := newMutableFetcher(corpus)
			b, woc := build(mf, workers)
			for i, pass := range passes {
				mf.mu.Lock()
				mf.overlay, mf.gone = pass.overlay, pass.gone
				mf.mu.Unlock()
				st, err := b.Refresh(woc, pass.urls)
				if err != nil {
					t.Fatalf("seed %d pass %d %v: %v", seed, i, pass.what, err)
				}
				reinduced += st.HostsReinduced
				replayed += st.PagesReplayed
			}
			before := t.Failed()
			requireConverged(t, woc, rebuilt, queries)
			if t.Failed() && !before {
				for i, pass := range passes {
					t.Logf("seed %d pass %d: %v", seed, i, pass.what)
				}
				t.Fatalf("seed %d, workers %d: random churn diverges from the rebuild", seed, workers)
			}
			woc.Close()
		}
		rebuilt.Close()
		if replayed == 0 {
			t.Errorf("seed %d: no pass replayed a page from the extraction memo", seed)
		}
		t.Logf("seed %d: %d hosts re-induced, %d pages replayed over the matrix", seed, reinduced, replayed)
	}
}
