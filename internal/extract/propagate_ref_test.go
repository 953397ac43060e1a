package extract

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"conceptweb/internal/htmlx"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// refExtractSiteAnalyzed is the whole-site SitePropagator.ExtractSiteAnalyzed
// that the per-page passes (listPage, propagatePage) and SiteMemo replaced,
// retained verbatim as the oracle: one trusted set, one dedupe set and one
// leftovers list for the whole site, pass 1 over every page and then pass 2
// over every page. No non-test code calls it.
func (s *SitePropagator) refExtractSiteAnalyzed(pas []*PageAnalysis) []*Candidate {
	trusted := make(map[string]bool)
	var out []*Candidate
	seen := make(map[string]bool)

	add := func(c *Candidate) {
		key := c.SourceURL + "\x00" + textproc.Normalize(c.Get(s.Inner.Domain.NameKey)) +
			"\x00" + textproc.Normalize(c.Get("zip")) + textproc.Normalize(c.Get("phone"))
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, c)
	}

	// Pass 1: repetition-based extraction; learn trusted signatures.
	minItems := s.Inner.MinItems
	if minItems < 2 {
		minItems = 2
	}
	type pending struct {
		pa    *PageAnalysis
		items []*htmlx.Node
		cps   []string // class-path signatures aligned with items
	}
	var leftovers []pending
	for _, pa := range pas {
		groups, sigs := pa.GroupsWithSigs(minItems)
		for gi, group := range groups {
			cands := s.Inner.extractGroup(pa, group)
			for _, c := range cands {
				add(c)
			}
			if len(cands) > 0 {
				trusted[sigs[gi]] = true
			}
		}
		// Collect singleton items (pre-sorted by the analysis) for pass 2.
		items, cps := pa.Singles(minItems)
		leftovers = append(leftovers, pending{pa, items, cps})
	}

	if len(trusted) == 0 {
		return out
	}

	// Pass 2: apply trusted signatures to unrepeated items.
	for _, lo := range leftovers {
		for i, item := range lo.items {
			if !trusted[lo.cps[i]] {
				continue
			}
			cand, hasEvidence, ok := s.Inner.parseItem(lo.pa, item)
			if !ok || !hasEvidence {
				continue
			}
			add(cand.Chain("propagate", 0.9))
		}
	}
	return out
}

// refExtractSite is the whole-site extract task the memo replaced: the
// whole-site list extraction above, then the detail pass on every page that
// yielded no list or propagated candidate.
func refExtractSite(prop *SitePropagator, pas []*PageAnalysis, detail func(*PageAnalysis) []*Candidate) []*Candidate {
	listCands := prop.refExtractSiteAnalyzed(pas)
	listPages := make(map[string]int)
	for _, c := range listCands {
		listPages[c.SourceURL]++
	}
	all := listCands
	for _, pa := range pas {
		if listPages[pa.Page.URL] >= 1 {
			continue
		}
		all = append(all, detail(pa)...)
	}
	return all
}

// refPropagatePage is propagatePage before its pre-test, retained verbatim
// as the oracle of the pre-test: it collects the page's singles whenever the
// site trusts any signature. No non-test code calls it.
func (s *SitePropagator) refPropagatePage(pa *PageAnalysis, trusted map[string]bool, list []*Candidate) []*Candidate {
	if len(trusted) == 0 {
		return nil
	}
	var out []*Candidate
	var seen map[string]bool
	items, cps := pa.Singles(s.minItems())
	for i, item := range items {
		if !trusted[cps[i]] {
			continue
		}
		cand, hasEvidence, ok := s.Inner.parseItem(pa, item)
		if !ok || !hasEvidence {
			continue
		}
		if seen == nil {
			seen = make(map[string]bool, len(list)+1)
			for _, c := range list {
				seen[s.dedupeKey(c)] = true
			}
		}
		c := cand.Chain("propagate", 0.9)
		if key := s.dedupeKey(c); !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	return out
}

// checkPretest runs the propagate pass over page with and without the
// pre-test, each on a fresh analysis, and requires the same candidates. It
// also checks the pre-test's soundness head on: at each of the first few
// MinItems where it says no, no single of the page has a trusted signature.
// It reports whether the pre-test let the page through and how many
// candidates the pass propagated.
func checkPretest(t testing.TB, prop *SitePropagator, page *webgraph.Page, trusted map[string]bool) (passed bool, n int) {
	t.Helper()
	list, _ := prop.listPage(Analyze(page))
	tails := trustedTails(trusted)
	got := prop.propagatePage(Analyze(page), trusted, tails, list)
	want := prop.refPropagatePage(Analyze(page), trusted, list)
	if err := sameCandidates(got, want); err != nil {
		t.Fatalf("%s, MinItems %d, trusted %v: %v", page.URL, prop.Inner.MinItems, trusted, err)
	}
	pa := Analyze(page)
	for m := 2; m <= 5; m++ {
		if pa.mayHoldTrusted(tails, m) {
			continue
		}
		_, cps := pa.Singles(m)
		for _, cp := range cps {
			if trusted[cp] {
				t.Fatalf("%s: the pre-test at MinItems %d turned the page away, but its single %s is trusted", page.URL, m, cp)
			}
		}
	}
	return pa.mayHoldTrusted(tails, prop.minItems()), len(got)
}

// ownSignatures returns the class-path signatures of the page's singles (at
// MinItems 2) and of its repeated groups' first items: the trusted sets a
// site could induce that reach this page.
func ownSignatures(page *webgraph.Page) []string {
	pa := Analyze(page)
	_, cps := pa.Singles(2)
	_, gsigs := pa.GroupsWithSigs(2)
	return append(slices.Clone(cps), gsigs...)
}

// TestPropagatePretestMatchesReference: over the pages of heavy-tail hosts,
// each listing also cut down to one result (which only propagation can
// extract), for three domains and MinItems 2 and 3, the propagate pass with
// its pre-test returns what it returns without, under the trusted set the
// host's list pass induces and under seeded random subsets of the page's
// own signatures.
func TestPropagatePretestMatchesReference(t *testing.T) {
	w := webgen.NewStreamWorld(webgen.HeavyTailConfig(2000))
	hosts := []string{"localplates.example", "roomlister.example", "events-0001.example",
		"eats-0000.example", "metroguide-0000.example", "branmarsh-palm-cafe-1.example"}
	rendered := hostPages(t, w, hosts...)
	domains := []Domain{
		RestaurantDomain(w.Cities(), webgen.Cuisines()),
		EventDomain(w.Cities()),
		HotelDomain(w.Cities()),
	}
	rng := rand.New(rand.NewSource(41))
	var pages, passed, propagated int
	for _, host := range hosts {
		var urls []string
		for u := range rendered[host] {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		var site []*webgraph.Page
		for _, u := range urls[:min(24, len(urls))] {
			html := rendered[host][u]
			site = append(site, webgraph.NewPage(u, html))
			if one := webgen.SingleResult(html); one != html {
				site = append(site, webgraph.NewPage(u+"/one", one))
			}
		}
		for _, d := range domains {
			for _, minItems := range []int{2, 3} {
				prop := &SitePropagator{Inner: &ListExtractor{Domain: d, MinItems: minItems}}
				induced := make(map[string]bool)
				for _, p := range site {
					_, sigs := prop.listPage(Analyze(p))
					for _, s := range sigs {
						induced[s] = true
					}
				}
				for _, p := range site {
					own := ownSignatures(p)
					random := make(map[string]bool)
					for _, s := range own {
						if rng.Intn(4) == 0 {
							random[s] = true
						}
					}
					for _, trusted := range []map[string]bool{induced, random} {
						ok, n := checkPretest(t, prop, p, trusted)
						pages++
						if ok {
							passed++
						}
						propagated += n
					}
				}
			}
		}
	}
	t.Logf("%d page passes, %d through the pre-test, %d candidates propagated", pages, passed, propagated)
	if passed == 0 || passed == pages || propagated == 0 {
		t.Fatalf("want pages on both sides of the pre-test and propagated candidates")
	}
}

// TestPropagatePretestSlashAndDot: a class name holding a '/' puts a '/'
// inside a signature's last step, and the pre-test still finds it; a
// hand-built tree whose tag holds a '.' has no known steps, and the
// pre-test lets it through.
func TestPropagatePretestSlashAndDot(t *testing.T) {
	page := webgraph.NewPage("slash.example/a", `<html><body><div class="list/wrap">`+
		`<p class="item/one">Gochi, 19980 Homestead Rd, Cupertino, (408) 725-0542</p></div></body></html>`)
	_, cps := Analyze(page).Singles(2)
	want := "html/body/div.list/wrap/p.item/one"
	if !slices.Contains(cps, want) {
		t.Fatalf("singles %q lack %s", cps, want)
	}
	pa := Analyze(page)
	if !pa.mayHoldTrusted(trustedTails(map[string]bool{want: true}), 2) {
		t.Errorf("the pre-test turns away a page holding the trusted single %s", want)
	}
	if pa.mayHoldTrusted(trustedTails(map[string]bool{"html/body/div.list/wrap/p.item/two": true}), 2) {
		t.Errorf("the pre-test lets through a page without a step of html/body/div.list/wrap/p.item/two")
	}

	doc := htmlx.Parse(`<html><body><ul><li>x</li></ul></body></html>`)
	doc.FindFirst("li").Data = "li.x"
	if !Analyze(&webgraph.Page{URL: "dot.example/", Doc: doc}).mayHoldTrusted(map[string]bool{"nothing": true}, 2) {
		t.Errorf("the pre-test turns away a page whose tag holds a '.'")
	}
}

// FuzzPropagatePretest: on any page, under a trusted set drawn from the
// page's own signatures (and a suffix of one, which no node need carry), the
// propagate pass with its pre-test returns what it returns without, and the
// pre-test turns the page away only when no single of it is trusted.
func FuzzPropagatePretest(f *testing.F) {
	_, htmls := fuzzSite(f)
	for i, html := range htmls {
		f.Add(html, uint64(1)<<i, uint8(i))
		f.Add(webgen.SingleResult(html), ^uint64(0), uint8(0))
	}
	f.Add(`<div class="a/b"><p class="c/d">Gochi 94040</p></div><ul><li>x<li>y</ul>`, uint64(5), uint8(1))
	cities := []string{"Cupertino", "San Jose"}
	domain := RestaurantDomain(cities, webgen.Cuisines())

	f.Fuzz(func(t *testing.T, html string, pick uint64, minItems uint8) {
		page := webgraph.NewPage("fuzz.example/page", html)
		prop := &SitePropagator{Inner: &ListExtractor{Domain: domain, MinItems: 2 + int(minItems%3)}}
		own := ownSignatures(page)
		trusted := make(map[string]bool)
		for i, s := range own {
			if pick>>(i%64)&1 == 1 {
				trusted[s] = true
			}
		}
		if len(own) > 0 {
			s := own[int(pick>>32)%len(own)]
			trusted[s[len(s)/2:]] = true
		}
		checkPretest(t, prop, page, trusted)
	})
}
