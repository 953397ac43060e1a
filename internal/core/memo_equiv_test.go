package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"conceptweb/internal/classify"
	"conceptweb/internal/extract"
	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// refExtractHosts and refExtractSite are the whole-host extract stage the
// extraction memo replaced, kept as the oracle: every page of every selected
// host read and analysed, whole-site list extraction with propagation, then
// the detail pass over the pages that yielded no list candidate. The
// whole-site propagator itself is checked against its own retained oracle in
// internal/extract (it needs the extractor's unexported item parser); here
// SitePropagator.ExtractSite runs it memo-less over fresh analyses. No
// non-test code calls these.
func (b *Builder) refExtractHosts(pages *webgraph.Store, only map[string]bool) []*extract.Candidate {
	var all []*extract.Candidate
	for _, host := range pages.Hosts() {
		if only != nil && !only[host] {
			continue
		}
		var site []*webgraph.Page
		for _, u := range pages.HostPages(host) {
			if p, err := pages.Get(u); err == nil {
				site = append(site, p)
			}
		}
		for _, d := range b.Cfg.Domains {
			all = append(all, b.refExtractSite(site, d)...)
		}
	}
	return all
}

func (b *Builder) refExtractSite(site []*webgraph.Page, d extract.Domain) []*extract.Candidate {
	prop := &extract.SitePropagator{Inner: &extract.ListExtractor{Domain: d}}
	listCands := prop.ExtractSite(site)
	listPages := make(map[string]int)
	for _, c := range listCands {
		listPages[c.SourceURL]++
	}
	all := listCands
	det := &extract.DetailExtractor{Domain: d}
	for _, p := range site {
		if listPages[p.URL] >= 1 {
			// The page yielded list records of this concept: it is a
			// listing (even a single-result one), not a detail page.
			continue
		}
		if b.Cfg.Gate != nil && !b.Cfg.Gate(d.Concept, p) {
			continue // classification routed this page elsewhere
		}
		for _, c := range det.ExtractAnalyzed(extract.Analyze(p)) {
			if p.Path == "/" {
				// A detail page at a site root is the instance's own
				// homepage.
				c.Add("homepage", p.URL, 0.9)
			}
			if hp := officialSiteLink(p); hp != "" {
				c.Add("homepage", hp, 0.8)
			}
			all = append(all, c)
		}
	}
	return all
}

// heavyTailCorpus renders the 2k-page heavy-tail world once: url → html,
// plus the hosts by site kind.
func heavyTailCorpus(t testing.TB) (w *webgen.StreamWorld, corpus corpusFetcher, byKind map[string][]string) {
	t.Helper()
	w = webgen.NewStreamWorld(webgen.HeavyTailConfig(2000))
	corpus = make(corpusFetcher)
	if err := w.StreamPages(func(u, html string) error { corpus[u] = html; return nil }); err != nil {
		t.Fatal(err)
	}
	byKind = make(map[string][]string)
	for _, p := range w.Plans() {
		byKind[p.Kind] = append(byKind[p.Kind], p.Host)
	}
	return w, corpus, byKind
}

// scaleGate trains the global page classifier on two portals' truth labels
// and gates every portal's pages into the restaurant and hotel extractors.
func scaleGate(t testing.TB, w *webgen.StreamWorld, corpus corpusFetcher, portals []string) func(string, *webgraph.Page) bool {
	t.Helper()
	st := testPageStore(t)
	for u, html := range corpus {
		st.Put(webgraph.NewPage(u, html))
	}
	nb := classify.NewNaiveBayes()
	trained := 0
	w.EachPage(func(p *webgen.Page) error { //nolint:errcheck // fn returns nil
		if p.Truth.Site == portals[0] || p.Truth.Site == portals[1] {
			nb.Train(classify.Features(webgraph.NewPage(p.URL, p.HTML)), p.Truth.Category)
			trained++
		}
		return nil
	})
	if trained == 0 {
		t.Fatal("no portal pages to train the gate on")
	}
	return ClassifierGate(nb, map[string]string{"restaurant": webgen.CatRestaurants, "hotel": webgen.CatHotels},
		st, webgraph.BuildGraph(st), portals)
}

// extractCaptured runs the memoised extract stage over the hosts, creating
// the memo on first use as Refresh does, and returns every candidate it
// offered to the fold, in fold order.
func extractCaptured(b *Builder, woc *WebOfConcepts, only map[string]bool) ([]*extract.Candidate, extractStats) {
	if woc.memo == nil {
		woc.memo = newExtractMemo()
	}
	var got []*extract.Candidate
	cg := newConceptGroups(func(c *extract.Candidate, _ string) bool {
		got = append(got, c)
		return false
	})
	st := b.extractHosts(woc, only, cg, nil)
	return got, st
}

func sameCandidates(got, want []*extract.Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("candidate %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestSiteMemoMatchesFullExtraction drives the extract stage, through the
// web of concepts' extraction memo, over seeded random page-store churn on
// the heavy-tail world — edit a page, delete it, bring it back with the same
// and with different bytes, add a page to a host, move a page to another
// layout variant so that a trusted signature appears on its site or vanishes
// from it — extracting now the touched host, now a host churned steps ago,
// now every host, with the scale configuration's three domains and a
// ClassifierGate installed, at one worker and at four. After every step the
// memoised output must equal the retained whole-host extraction candidate
// for candidate: order, values, confidences, operator chains. Part-way the
// budget is cut so that hosts are evicted and must re-extract in full.
func TestSiteMemoMatchesFullExtraction(t *testing.T) {
	w, corpus, byKind := heavyTailCorpus(t)
	reg := lrec.NewRegistry()
	webgen.RegisterScaleConcepts(reg)
	cfg := ScaleConfig(reg, w.Cities(), webgen.Cuisines())
	cfg.Gate = scaleGate(t, w, corpus, byKind[webgen.SitePortal])
	// The hosts worth churning: every aggregator, and a few of each tail kind.
	var hosts []string
	for kind, hs := range byKind {
		if kind != webgen.SiteAggRestaurant && kind != webgen.SiteAggHotel && len(hs) > 3 {
			hs = hs[:3]
		}
		hosts = append(hosts, hs...)
	}
	sort.Strings(hosts)

	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		b := &Builder{Cfg: cfg}
		woc, err := b.newWoc()
		if err != nil {
			t.Fatal(err)
		}
		for u, html := range corpus {
			woc.Pages.Put(webgraph.NewPage(u, html))
		}
		seed := int64(40 + workers)
		rng := rand.New(rand.NewSource(seed))
		gone := make(map[string]string)
		// seen models what the memo may answer for: each page's hash when
		// its host was last extracted, forgotten when the page is deleted.
		seen := make(map[string]uint64)
		put := func(u, html string) { woc.Pages.Put(webgraph.NewPage(u, html)) }
		var reinductions, replays, refills int

		for step := 0; step < 36; step++ {
			host := hosts[rng.Intn(len(hosts))]
			urls := woc.Pages.HostPages(host)
			u := urls[rng.Intn(len(urls))]
			// Half the time churn a listing page when the host has one: it
			// is listings that vouch for signatures.
			var listings []string
			for _, hu := range urls {
				if strings.Contains(hu, "/dir/") || strings.Contains(hu, "/hotels/") {
					listings = append(listings, hu)
				}
			}
			if len(listings) > 0 && rng.Intn(2) == 0 {
				u = listings[rng.Intn(len(listings))]
			}
			page, err := woc.Pages.Get(u)
			if err != nil {
				t.Fatal(err)
			}
			what := "first extraction"
			switch op := rng.Intn(9); {
			case step == 0:
			case op == 0:
				put(u, webgen.EditText(page.HTML, fmt.Sprintf("Edited at step %d.", step)))
				what = "edit " + u
			case op == 1 && len(urls) > 3:
				gone[u] = page.HTML
				woc.Pages.Delete(u)
				woc.memo.drop(u)
				delete(seen, u)
				what = "delete " + u
			case op == 2 || op == 3:
				var back []string
				for g := range gone {
					back = append(back, g)
				}
				if len(back) == 0 {
					continue
				}
				sort.Strings(back)
				u = back[rng.Intn(len(back))]
				html := gone[u]
				if op == 3 {
					html = webgen.EditText(html, fmt.Sprintf("Back at step %d.", step))
				}
				put(u, html)
				delete(gone, u)
				host, _, _ = strings.Cut(u, "/")
				what = fmt.Sprintf("resurrect (op %d) %s", op, u)
			case op == 4:
				added := fmt.Sprintf("%s/added-%d", host, step)
				put(added, webgen.SingleResult(page.HTML))
				what = "add " + added
			default:
				if len(listings) > 0 {
					u = listings[rng.Intn(len(listings))]
					page, _ = woc.Pages.Get(u)
				}
				put(u, webgen.Relayout(page.HTML, rng.Intn(8)))
				what = "relayout " + u
			}
			if step == 24 {
				// From here on the memo cannot hold the corpus.
				woc.memo.budget = 600
			}

			// Extract the touched host, another host (whose churn may be
			// steps old), or everything.
			var only map[string]bool
			switch rng.Intn(12) {
			case 0:
				only = map[string]bool{hosts[rng.Intn(len(hosts))]: true}
			case 1:
			default:
				only = map[string]bool{host: true}
			}
			if step == 0 {
				only = nil
			}
			// Going in: the pages of the hosts to extract, how many of them
			// changed since the memo saw them, and whether it holds them all.
			npages, ndirty, allHeld := 0, 0, true
			for _, h := range woc.Pages.Hosts() {
				if only != nil && !only[h] {
					continue
				}
				for _, hu := range woc.Pages.HostPages(h) {
					npages++
					now, _ := woc.Pages.Hash(hu)
					if was, ok := seen[hu]; !ok || was != now {
						ndirty++
					}
					seen[hu] = now
				}
				allHeld = allHeld && woc.memo != nil && woc.memo.hosts[h] != nil
			}
			if step > 0 && !allHeld {
				refills++ // an evicted host comes back
			}
			got, st := extractCaptured(b, woc, only)
			want := b.refExtractHosts(woc.Pages, only)
			if err := sameCandidates(got, want); err != nil {
				t.Fatalf("workers %d seed %d step %d (%s, extracting %v): %v", workers, seed, step, what, only, err)
			}

			// The memo must earn its keep: over hosts it held and did not
			// re-induce, exactly the pages that changed are analysed.
			if st.pagesAnalyzed+st.pagesReplayed != npages {
				t.Fatalf("workers %d seed %d step %d: %d analysed + %d replayed, hosts hold %d pages",
					workers, seed, step, st.pagesAnalyzed, st.pagesReplayed, npages)
			}
			switch {
			case st.hostsReinduced > 0:
				reinductions++
			case allHeld:
				replays++
				if st.pagesAnalyzed != ndirty {
					t.Fatalf("workers %d seed %d step %d (%s, extracting %v): analysed %d pages, %d had changed",
						workers, seed, step, what, only, st.pagesAnalyzed, ndirty)
				}
			}
			total := 0
			for _, hm := range woc.memo.hosts {
				total += hm.candidates()
			}
			if total > woc.memo.budget {
				t.Fatalf("workers %d seed %d step %d: memo holds %d candidates over a budget of %d",
					workers, seed, step, total, woc.memo.budget)
			}
		}
		t.Logf("workers %d seed %d: %d re-inductions, %d plain replays, %d extractions of evicted hosts",
			workers, seed, reinductions, replays, refills)
		if reinductions == 0 || replays == 0 || refills == 0 {
			t.Fatalf("workers %d seed %d: the schedule must exercise re-induction, plain replay and eviction", workers, seed)
		}
		woc.Close()
	}
}

// TestBuildStreamKeepsNoMemo: the streamed build's contract is site-bounded
// memory, so it leaves no extraction memo behind; the first maintenance pass
// to touch a host fills the host's memo by extracting it in full, and the
// next pass over the same host analyses only what changed.
func TestBuildStreamKeepsNoMemo(t *testing.T) {
	w := smallWorld()
	mf := newMutableFetcher(w)
	b := streamBuilder(w, nil)
	b.Fetcher = mf
	woc, _, err := b.BuildStream(worldSource{w})
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	if woc.memo != nil {
		t.Fatal("BuildStream kept an extraction memo")
	}

	host := "welp.example"
	urls := woc.Pages.HostPages(host)
	edit := func(u, text string) *RefreshStats {
		t.Helper()
		p, err := woc.Pages.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		mf.setOverlay(u, webgen.EditText(p.HTML, text))
		st, err := b.Refresh(woc, []string{u})
		if err != nil {
			t.Fatal(err)
		}
		if st.PagesChanged != 1 {
			t.Fatalf("edit of %s not seen: %+v", u, st)
		}
		return st
	}
	st := edit(urls[0], "First touch.")
	if st.PagesReplayed != 0 || st.PagesAnalyzed < len(urls) {
		t.Errorf("first touch analysed %d and replayed %d pages, host has %d", st.PagesAnalyzed, st.PagesReplayed, len(urls))
	}
	touched := st.PagesAnalyzed
	st = edit(urls[1], "Second touch.")
	if st.PagesAnalyzed != 1 || st.PagesReplayed != touched-1 {
		t.Errorf("second touch analysed %d and replayed %d pages, want 1 and %d", st.PagesAnalyzed, st.PagesReplayed, touched-1)
	}
}

// corruptStoredPage flips one byte of url's stored HTML in the disk page
// store's segment files, so that reading the page fails its checksum while
// the store's index still lists it: an unreadable page.
func corruptStoredPage(t testing.TB, dir, url, html string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "pages-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in %s (%v)", dir, err)
	}
	needle := []byte(url + html)
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if at := bytes.Index(data, needle); at >= 0 {
			data[at+len(url)+len(html)/2] ^= 0x20
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("frame of %s not found in %d segments", url, len(segs))
}

// TestWindowSchedulerMatchesWholeHost: the page-task extract stage against
// the retained whole-host extraction, candidate for candidate, at 1, 2 and 8
// workers with the window forced to a single host (closing after one page),
// to 64 pages (five aggregator hosts are larger, and the tail hosts share
// windows) and to the whole corpus. The corpus is the heavy-tail world on a
// disk page store plus a run of six 1-page hosts, and one stored page is
// unreadable. Each point extracts, in turn: everything through a fresh memo
// (a build), everything memo-less (a streamed build), one host after a text
// edit on it (a maintenance pass's host-restricted extraction, all but one
// page replayed), and one host after a listing moved to another layout
// variant so that its trusted set changed (a re-induction pass).
func TestWindowSchedulerMatchesWholeHost(t *testing.T) {
	w, corpus, byKind := heavyTailCorpus(t)
	reg := lrec.NewRegistry()
	webgen.RegisterScaleConcepts(reg)
	cfg := ScaleConfig(reg, w.Cities(), webgen.Cuisines())
	cfg.Gate = scaleGate(t, w, corpus, byKind[webgen.SitePortal])

	// A run of 1-page hosts, adjacent in host order: a one-item listing that
	// only propagation could read (with no sibling page to vouch for its
	// template, nothing does), detail pages, a review.
	agg := byKind[webgen.SiteAggRestaurant][0]
	var listing, unreadable string
	solo := 0
	for _, u := range sortedKeys(corpus) {
		if !strings.HasPrefix(u, agg+"/") {
			continue
		}
		switch {
		case strings.Contains(u, "/dir/") && listing == "":
			listing = u
			corpus[fmt.Sprintf("solo-%04d.example/", solo)] = webgen.SingleResult(corpus[u])
			solo++
		case !strings.Contains(u, "/dir/") && solo < 6:
			if unreadable == "" {
				unreadable = u
			}
			corpus[fmt.Sprintf("solo-%04d.example/", solo)] = corpus[u]
			solo++
		}
	}
	if solo < 6 || listing == "" {
		t.Fatalf("%s gave %d solo pages and listing %q", agg, solo, listing)
	}
	urls := sortedKeys(corpus)

	newStore := func() *webgraph.Store {
		dir := t.TempDir()
		ps, err := webgraph.OpenDiskStore(dir, webgraph.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Close() })
		for _, u := range urls {
			ps.PutRaw(u, corpus[u])
		}
		if err := ps.Flush(); err != nil {
			t.Fatal(err)
		}
		corruptStoredPage(t, dir, unreadable, corpus[unreadable])
		if _, err := ps.Get(unreadable); err == nil {
			t.Fatalf("%s still readable", unreadable)
		}
		return ps
	}

	// What every point must reproduce, computed once by the oracle.
	oracle := &Builder{Cfg: cfg}
	ref := newStore()
	wantFresh := oracle.refExtractHosts(ref, nil)
	edited := webgen.EditText(corpus[listing], "Edited under the window scheduler.")
	ref.PutRaw(listing, edited)
	wantEdit := oracle.refExtractHosts(ref, map[string]bool{agg: true})
	relaid := webgen.Relayout(edited, 5)
	if relaid == edited {
		relaid = webgen.Relayout(edited, 6)
	}
	ref.PutRaw(listing, relaid)
	wantRelaid := oracle.refExtractHosts(ref, map[string]bool{agg: true})
	if len(wantFresh) == 0 || len(wantEdit) == 0 || relaid == edited {
		t.Fatalf("oracle gave %d and %d candidates: the test would prove nothing", len(wantFresh), len(wantEdit))
	}

	for _, workers := range []int{1, 2, 8} {
		for _, window := range []int{1, 64, 1 << 30} {
			point := fmt.Sprintf("workers %d, window %d", workers, window)
			cfg.Workers = workers
			cfg.PageStore = newStore()
			b := &Builder{Cfg: cfg, extractWindow: window}
			woc, err := b.newWoc()
			if err != nil {
				t.Fatal(err)
			}

			var streamed []*extract.Candidate
			cg := newConceptGroups(func(c *extract.Candidate, _ string) bool {
				streamed = append(streamed, c)
				return false
			})
			st := b.extractPages(woc.Pages, woc.Pages.Hosts(), nil, cg, nil)
			if err := sameCandidates(streamed, wantFresh); err != nil {
				t.Fatalf("%s, memo-less: %v", point, err)
			}
			if st.pagesAnalyzed != len(urls)-1 || st.pagesReplayed != 1 {
				t.Fatalf("%s, memo-less: analysed %d and skipped %d of %d pages, one of them unreadable",
					point, st.pagesAnalyzed, st.pagesReplayed, len(urls))
			}

			got, st := extractCaptured(b, woc, nil)
			if err := sameCandidates(got, wantFresh); err != nil {
				t.Fatalf("%s, fresh memo: %v", point, err)
			}
			if st.pagesAnalyzed != len(urls)-1 || st.hostsReinduced != 0 {
				t.Fatalf("%s, fresh memo: %+v", point, st)
			}

			woc.Pages.PutRaw(listing, edited)
			got, st = extractCaptured(b, woc, map[string]bool{agg: true})
			if err := sameCandidates(got, wantEdit); err != nil {
				t.Fatalf("%s, host-restricted pass: %v", point, err)
			}
			// The unreadable page is asked for again: the memo holds nothing
			// for it.
			if st.pagesAnalyzed != 1 || st.hostsReinduced != 0 {
				t.Fatalf("%s, host-restricted pass over one edited page: %+v", point, st)
			}

			woc.Pages.PutRaw(listing, relaid)
			got, st = extractCaptured(b, woc, map[string]bool{agg: true})
			if err := sameCandidates(got, wantRelaid); err != nil {
				t.Fatalf("%s, re-induction pass: %v", point, err)
			}
			if st.hostsReinduced != 1 || st.pagesReplayed != 1 {
				t.Fatalf("%s, re-induction pass: %+v", point, st)
			}
			woc.Close()
		}
	}
}

func sortedKeys(m corpusFetcher) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
