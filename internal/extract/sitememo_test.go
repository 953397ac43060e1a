package extract

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// sameCandidates compares candidate for candidate — concept, source, operator
// chain, confidence and every attribute value with its provenance — treating
// nil and empty alike.
func sameCandidates(got, want []*Candidate) error {
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

// testDetail is a detail pass shaped like the build's: a gate that turns
// some pages away, the detail extractor, and a decoration of what it found.
func testDetail(d Domain) func(*PageAnalysis) []*Candidate {
	det := &DetailExtractor{Domain: d}
	return func(pa *PageAnalysis) []*Candidate {
		p := pa.Page
		if d.Concept == "hotel" && webgraph.HashContent(p.URL)%3 == 0 {
			return nil
		}
		found := det.ExtractAnalyzed(pa)
		for _, c := range found {
			if p.Path == "/" {
				c.Add("homepage", p.URL, 0.9)
			}
		}
		return found
	}
}

// hostPages renders the pages of the given heavy-tail hosts.
func hostPages(t testing.TB, w *webgen.StreamWorld, hosts ...string) map[string]map[string]string {
	t.Helper()
	out := make(map[string]map[string]string)
	for _, h := range hosts {
		out[h] = make(map[string]string)
	}
	err := w.EachPage(func(p *webgen.Page) error {
		if pages, ok := out[p.Truth.Site]; ok {
			pages[p.URL] = p.HTML
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for h, pages := range out {
		if len(pages) == 0 {
			t.Fatalf("world has no host %s", h)
		}
	}
	return out
}

// liveSite is a site under churn: the current bytes of each page, parsed at
// most once per distinct content.
type liveSite struct {
	cur    map[string]string
	parsed map[uint64]*webgraph.Page
}

func (ls *liveSite) page(u string) *webgraph.Page {
	h := webgraph.HashContent(u + "\x00" + ls.cur[u])
	if p := ls.parsed[h]; p != nil {
		return p
	}
	p := webgraph.NewPage(u, ls.cur[u])
	ls.parsed[h] = p
	return p
}

func (ls *liveSite) urls() []string {
	urls := make([]string, 0, len(ls.cur))
	for u := range ls.cur {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	return urls
}

// site returns the Site view of the current pages; every Analysis call is
// recorded in loaded.
func (ls *liveSite) site(loaded map[string]bool) Site {
	urls := ls.urls()
	s := Site{URLs: urls, Hashes: make([]uint64, len(urls))}
	for i, u := range urls {
		s.Hashes[i] = webgraph.HashContent(ls.cur[u])
	}
	s.Analysis = func(i int) *PageAnalysis {
		loaded[urls[i]] = true
		return Analyze(ls.page(urls[i]))
	}
	return s
}

func (ls *liveSite) analyses() []*PageAnalysis {
	var pas []*PageAnalysis
	for _, u := range ls.urls() {
		pas = append(pas, Analyze(ls.page(u)))
	}
	return pas
}

// TestSitePagesMatchWholeSite drives seeded random churn over heavy-tail
// hosts — edit a page, delete it (telling the memo or not), bring it back
// with the same and with different bytes, add a page (a listing cut down to
// one item, which only propagation can extract), move a page to another
// layout variant so that a trusted signature appears on the site or vanishes
// from it — and after every step requires the memoised page-by-page
// extraction to equal the retained whole-site extraction candidate for
// candidate, for every scale domain. It also requires the memo to earn its
// keep: without re-induction, only pages whose bytes changed are analysed.
func TestSitePagesMatchWholeSite(t *testing.T) {
	w := webgen.NewStreamWorld(webgen.HeavyTailConfig(2000))
	hosts := []string{"localplates.example", "roomlister.example", "events-0001.example",
		"eats-0000.example", "metroguide-0000.example", "branmarsh-palm-cafe-1.example"}
	rendered := hostPages(t, w, hosts...)
	domains := []Domain{
		RestaurantDomain(w.Cities(), webgen.Cuisines()),
		EventDomain(w.Cities()),
		HotelDomain(w.Cities()),
	}

	var reinductions, replays, propagated int
	for hi, host := range hosts {
		rng := rand.New(rand.NewSource(int64(100 + hi)))
		ls := &liveSite{cur: rendered[host], parsed: make(map[uint64]*webgraph.Page)}
		gone := make(map[string]string)
		var listings []string
		for _, u := range ls.urls() {
			if strings.Contains(u, "/dir/") || strings.Contains(u, "/hotels/") {
				listings = append(listings, u)
			}
		}
		memos := make([]*SiteMemo, len(domains))
		for i := range memos {
			memos[i] = new(SiteMemo)
		}
		lastHash := make(map[string]uint64)

		pick := func() string {
			if len(listings) > 0 && rng.Intn(2) == 0 {
				if u := listings[rng.Intn(len(listings))]; ls.cur[u] != "" {
					return u
				}
			}
			urls := ls.urls()
			return urls[rng.Intn(len(urls))]
		}
		for step := 0; step < 40; step++ {
			var what string
			switch op := rng.Intn(7); {
			case step == 0:
				what = "first extraction"
			case op == 0:
				u := pick()
				ls.cur[u] = webgen.EditText(ls.cur[u], fmt.Sprintf("Edited at step %d.", step))
				what = "edit " + u
			case op == 1 && len(ls.cur) > 3:
				u := pick()
				gone[u] = ls.cur[u]
				delete(ls.cur, u)
				if rng.Intn(2) == 0 {
					for _, m := range memos {
						m.Drop(u)
					}
				}
				what = "delete " + u
			case op == 2 || op == 3:
				var back []string
				for u := range gone {
					back = append(back, u)
				}
				if len(back) == 0 {
					break
				}
				sort.Strings(back)
				u := back[rng.Intn(len(back))]
				ls.cur[u] = gone[u]
				if op == 3 {
					ls.cur[u] = webgen.EditText(gone[u], fmt.Sprintf("Back at step %d.", step))
				}
				delete(gone, u)
				what = fmt.Sprintf("resurrect (op %d) %s", op, u)
			case op == 4:
				u := fmt.Sprintf("%s/added-%d", host, step)
				ls.cur[u] = webgen.SingleResult(ls.cur[pick()])
				what = "add " + u
			default:
				u := pick()
				ls.cur[u] = webgen.Relayout(ls.cur[u], rng.Intn(8))
				what = "relayout " + u
			}
			if what == "" {
				continue
			}

			pas := ls.analyses()
			for di, d := range domains {
				prop := &SitePropagator{Inner: &ListExtractor{Domain: d}}
				loaded := make(map[string]bool)
				got, reinduced := memos[di].Extract(prop, ls.site(loaded), testDetail(d))
				want := refExtractSite(prop, pas, testDetail(d))
				if err := sameCandidates(got, want); err != nil {
					t.Fatalf("%s step %d (%s), %s: %v", host, step, what, d.Concept, err)
				}
				if held := memos[di].Candidates(); held != len(want) {
					t.Fatalf("%s step %d (%s), %s: memo holds %d candidates, extraction returned %d",
						host, step, what, d.Concept, held, len(want))
				}
				for _, c := range got {
					if c.Operators[len(c.Operators)-1] == "propagate" {
						propagated++
					}
				}
				switch {
				case reinduced:
					reinductions++
				case step > 0:
					replays++
					for u := range loaded {
						if lastHash[u] == webgraph.HashContent(ls.cur[u]) {
							t.Fatalf("%s step %d (%s), %s: analysed unchanged page %s without re-induction",
								host, step, what, d.Concept, u)
						}
					}
				}
			}
			for u := range lastHash {
				delete(lastHash, u)
			}
			for u, html := range ls.cur {
				lastHash[u] = webgraph.HashContent(html)
			}
		}
	}
	t.Logf("%d re-inductions, %d plain replays, %d propagated candidates", reinductions, replays, propagated)
	if reinductions == 0 || replays == 0 || propagated == 0 {
		t.Fatalf("schedules exercised %d re-inductions, %d plain replays, %d propagated candidates: want all non-zero",
			reinductions, replays, propagated)
	}
}

// fuzzSite is the fixed three-page site FuzzSitePageMemo splices its input
// into: a listing, a detail and a review page of the heavy-tail world.
func fuzzSite(t testing.TB) (urls, htmls []string) {
	t.Helper()
	w := webgen.NewStreamWorld(webgen.HeavyTailConfig(2000))
	want := []string{webgen.KindCategory, webgen.KindBiz, webgen.KindReviewPost}
	found := make([]*webgen.Page, len(want))
	w.EachPage(func(p *webgen.Page) error { //nolint:errcheck // fn returns nil
		for i, k := range want {
			if found[i] == nil && p.Truth.Kind == k {
				found[i] = p
			}
		}
		return nil
	})
	for i, p := range found {
		if p == nil {
			t.Fatalf("world has no %s page", want[i])
		}
		// One host, so that the pages form a site.
		urls = append(urls, fmt.Sprintf("fuzz.example/page-%d", i))
		htmls = append(htmls, p.HTML)
	}
	return urls, htmls
}

// FuzzSitePageMemo splices arbitrary bytes into the fixed site as the HTML
// of one of its pages, and back out again: parsing and the three per-page
// passes must not panic, and after both changes the memoised extraction
// must equal the whole-site reference.
func FuzzSitePageMemo(f *testing.F) {
	urls, htmls := fuzzSite(f)
	for i, html := range htmls {
		f.Add([]byte(html), uint8(i))
		f.Add([]byte(webgen.Relayout(html, 7)), uint8((i+1)%len(htmls)))
		f.Add([]byte(webgen.SingleResult(html)), uint8((i+2)%len(htmls)))
	}
	f.Add([]byte("<ul><li class=a><li class=a><table><tr><td>94040</ul></table>"), uint8(0))
	cities := []string{"Cupertino", "San Jose"}
	domains := []Domain{RestaurantDomain(cities, webgen.Cuisines()), HotelDomain(cities)}

	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		ls := &liveSite{cur: make(map[string]string), parsed: make(map[uint64]*webgraph.Page)}
		for i, u := range urls {
			ls.cur[u] = htmls[i]
		}
		target := urls[int(which)%len(urls)]
		for _, d := range domains {
			prop := &SitePropagator{Inner: &ListExtractor{Domain: d}}
			memo := new(SiteMemo)
			for step, html := range []string{ls.cur[target], string(data), ls.cur[target]} {
				ls.cur[target] = html
				got, _ := memo.Extract(prop, ls.site(map[string]bool{}), testDetail(d))
				want := refExtractSite(prop, ls.analyses(), testDetail(d))
				if err := sameCandidates(got, want); err != nil {
					t.Fatalf("%s, step %d: %v", d.Concept, step, err)
				}
			}
		}
	})
}
