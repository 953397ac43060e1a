package core

import (
	"fmt"
	"math/rand"
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
	st := webgraph.NewStore()
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

// extractCaptured runs the memoised extract stage over the hosts and
// returns every candidate it offered to the fold, in fold order.
func extractCaptured(b *Builder, woc *WebOfConcepts, only map[string]bool) ([]*extract.Candidate, extractStats) {
	var got []*extract.Candidate
	cg := newConceptGroups(func(c *extract.Candidate, _ string) bool {
		got = append(got, c)
		return false
	})
	_, st := b.extractHosts(woc, only, cg)
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
		woc, _, err := b.newWoc()
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
