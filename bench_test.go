// Experiment harness: one benchmark per paper artifact (E1–E4 usage
// studies, F1 concept box, T1 transition matrix) plus the A-series
// ablations DESIGN.md calls out. Each benchmark measures the throughput of
// the code path under test AND reports the reproduced statistic as custom
// metrics, so `go test -bench=. -benchmem` regenerates every number in
// EXPERIMENTS.md in one run.
package conceptweb

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"conceptweb/internal/ads"
	"conceptweb/internal/bootstrap"
	"conceptweb/internal/classify"
	"conceptweb/internal/core"
	"conceptweb/internal/extract"
	"conceptweb/internal/logsim"
	"conceptweb/internal/lrec"
	"conceptweb/internal/match"
	"conceptweb/internal/search"
	"conceptweb/internal/session"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// Shared fixture: one world, one build, one log corpus for every benchmark.
var (
	fixOnce sync.Once
	fxWorld *webgen.World
	fxWoc   *core.WebOfConcepts
	fxBld   *core.Builder
	fxEng   *search.Engine
	fxLogs  *logsim.Logs
)

func fixture(b *testing.B) (*webgen.World, *core.WebOfConcepts, *search.Engine, *logsim.Logs) {
	b.Helper()
	fixOnce.Do(func() {
		fxWorld = webgen.Generate(webgen.DefaultConfig())
		reg := lrec.NewRegistry()
		webgen.RegisterConcepts(reg)
		fxBld = &core.Builder{Fetcher: fxWorld,
			Cfg: core.StandardConfig(reg, fxWorld.Cities(), webgen.Cuisines())}
		woc, _, err := fxBld.Build(fxWorld.SeedURLs())
		if err != nil {
			panic(err)
		}
		woc.Reconcile("restaurant", core.PreferSupport)
		fxWoc = woc
		fxEng = search.NewEngine(woc, search.NewParser(fxWorld.Cities(), webgen.Cuisines()))
		fxLogs = logsim.NewSimulator(fxWorld, logsim.DefaultConfig()).Run()
	})
	return fxWorld, fxWoc, fxEng, fxLogs
}

// --- E1–E4: the §3 usage studies ---

func BenchmarkE1ConceptsVsSearch(b *testing.B) {
	_, _, _, logs := fixture(b)
	var res logsim.E1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = logsim.AnalyzeE1(logs, webgen.PrimaryAggregator)
	}
	b.ReportMetric(100*res.BizFrac, "biz%")       // paper: 59
	b.ReportMetric(100*res.SearchFrac, "search%") // paper: 19
	b.ReportMetric(100*res.CatFrac, "cat%")       // paper: 11
}

func BenchmarkE2AttributeSearch(b *testing.B) {
	w, _, _, logs := fixture(b)
	var res logsim.E2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = logsim.AnalyzeE2(logs, w)
	}
	frac := map[string]float64{}
	for _, tf := range res.Tokens {
		frac[tf.Token] = tf.Frac
	}
	b.ReportMetric(100*frac["menu"], "menu%")           // paper: 3
	b.ReportMetric(100*frac["coupons"], "coupons%")     // paper: 1.8
	b.ReportMetric(100*frac["locations"], "locations%") // paper: 1.5
}

func BenchmarkE3Aggregation(b *testing.B) {
	_, _, _, logs := fixture(b)
	var res logsim.E3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = logsim.AnalyzeE3(logs, webgen.PrimaryAggregator)
	}
	b.ReportMetric(100*res.AtLeast1Other, "ge1other%") // paper: 59
	b.ReportMetric(100*res.AtLeast2Other, "ge2other%") // paper: 35
}

func BenchmarkE4Browsing(b *testing.B) {
	w, _, _, logs := fixture(b)
	var res logsim.E4Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = logsim.AnalyzeE4(logs, w)
	}
	b.ReportMetric(100*res.SearchPreceded, "preceded%")  // paper: 42
	b.ReportMetric(100*res.NextLocationFrac, "nextLoc%") // paper: 11.5
	b.ReportMetric(100*res.NextMenuFrac, "nextMenu%")    // paper: 9
	b.ReportMetric(100*res.MultiInstance, "multi%")      // paper: 10.5
}

// --- F1: the Figure 1 concept box ---

func BenchmarkF1ConceptBox(b *testing.B) {
	w, _, eng, _ := fixture(b)
	var queries []string
	for _, r := range w.Restaurants {
		queries = append(queries, r.Name+" "+r.City)
	}
	triggered, correct := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		page := eng.Search(q, 8)
		if page.Box != nil {
			triggered++
			r := w.Restaurants[i%len(queries)]
			if textproc.Normalize(page.Box.Record.Get("zip")) == r.Zip {
				correct++
			}
		}
	}
	if triggered > 0 {
		b.ReportMetric(100*float64(triggered)/float64(b.N), "trigger%")
		b.ReportMetric(100*float64(correct)/float64(triggered), "boxAcc%")
	}
}

// --- T1: the Table 1 transition matrix, one sub-benchmark per cell ---

func BenchmarkT1Transitions(b *testing.B) {
	w, woc, eng, _ := fixture(b)
	tr := session.NewTransitions(eng)
	var rec *lrec.Record
	var rest *webgen.Restaurant
	for _, r := range w.Restaurants {
		if r.Homepage == "" {
			continue
		}
		recs := woc.Records.ByAttr("restaurant", "phone", r.Phone)
		if len(recs) == 1 {
			rec, rest = recs[0], r
			break
		}
	}
	if rec == nil {
		b.Fatal("no fixture restaurant")
	}
	q := rest.Cuisine + " " + strings.ToLower(rest.City)
	article := ""
	if arts := woc.PagesOf(rec.ID); len(arts) > 0 {
		article = arts[0]
	}
	cells := []struct {
		name string
		fn   func() int
	}{
		{"assistance", func() int { return len(tr.ResultToResult(q, 5)) }},
		{"concept-search", func() int { return len(tr.ResultToConcept(q, 5)) }},
		{"vanilla-search", func() int { return len(tr.ResultToArticle(q, 5)) }},
		{"search-within-concept", func() int { return len(tr.ConceptToResult(rec.ID, rest.Menu[0], 5)) }},
		{"concept-recommendation", func() int { return len(tr.ConceptToConcept(rec.ID, 5)) }},
		{"semantic-linking-c2a", func() int { return len(tr.ConceptToArticle(rec.ID, 5)) }},
		{"semantic-linking-a2c", func() int { return len(tr.ArticleToConcept(article, 5)) }},
		{"related-pages", func() int { return len(tr.ArticleToArticle(article, 5)) }},
	}
	for _, cell := range cells {
		b.Run(cell.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				n = cell.fn()
			}
			b.ReportMetric(float64(n), "links")
		})
	}
}

// --- A1: extraction quality, domain-centric vs. the §4.1 baselines ---

func BenchmarkA1ExtractionQuality(b *testing.B) {
	w, _, _, _ := fixture(b)

	// Ground truth per aggregator category page.
	type labeled struct {
		page   *webgraph.Page
		names  map[string]bool
		nTruth int
	}
	siteOf := func(host string) []labeled {
		site, _ := w.SiteByHost(host)
		var out []labeled
		for _, p := range site.Pages {
			if p.Truth.Kind != webgen.KindCategory {
				continue
			}
			names := map[string]bool{}
			for _, id := range p.Truth.EntityIDs {
				r, _ := w.RestaurantByID(id)
				for v := 0; v < 3; v++ {
					names[textproc.Normalize(r.NameVariant(v))] = true
				}
			}
			out = append(out, labeled{webgraph.NewPage(p.URL, p.HTML), names, len(p.Truth.EntityIDs)})
		}
		return out
	}
	score := func(cands []*extract.Candidate, pages []labeled) (prec, rec float64) {
		truthTotal, tp, fp := 0, 0, 0
		byURL := map[string][]*extract.Candidate{}
		for _, c := range cands {
			byURL[c.SourceURL] = append(byURL[c.SourceURL], c)
		}
		for _, lp := range pages {
			truthTotal += lp.nTruth
			for _, c := range byURL[lp.page.URL] {
				if lp.names[textproc.Normalize(c.Get("name"))] {
					tp++
				} else {
					fp++
				}
			}
		}
		if tp+fp > 0 {
			prec = float64(tp) / float64(tp+fp)
		}
		if truthTotal > 0 {
			rec = float64(tp) / float64(truthTotal)
		}
		return prec, rec
	}

	welp := siteOf("welp.example")
	citysift := siteOf("citysift.example")
	domain := extract.RestaurantDomain(w.Cities(), webgen.Cuisines())

	b.Run("domain-centric", func(b *testing.B) {
		var prec, rec float64
		for i := 0; i < b.N; i++ {
			prop := &extract.SitePropagator{Inner: &extract.ListExtractor{Domain: domain}}
			var cands []*extract.Candidate
			for _, site := range [][]labeled{welp, citysift} {
				var pages []*webgraph.Page
				for _, lp := range site {
					pages = append(pages, lp.page)
				}
				cands = append(cands, prop.ExtractSite(pages)...)
			}
			prec, rec = score(cands, append(append([]labeled{}, welp...), citysift...))
		}
		b.ReportMetric(100*prec, "prec%")
		b.ReportMetric(100*rec, "rec%")
	})

	// Wrapper trained on welp biz pages, applied same-site and cross-site.
	var exs []extract.LabeledExample
	site, _ := w.SiteByHost("welp.example")
	for _, p := range site.Pages {
		if p.Truth.Kind == webgen.KindBiz && len(exs) < 3 {
			exs = append(exs, extract.LabeledExample{
				Page: webgraph.NewPage(p.URL, p.HTML),
				Attrs: map[string]string{"name": p.Truth.Attrs["name"],
					"zip": p.Truth.Attrs["zip"], "phone": p.Truth.Attrs["phone"]},
			})
		}
	}
	scoreBiz := func(wr *extract.Wrapper, host string) float64 {
		st, _ := w.SiteByHost(host)
		ok, total := 0, 0
		for _, p := range st.Pages {
			if p.Truth.Kind != webgen.KindBiz {
				continue
			}
			total++
			for _, c := range wr.Extract(webgraph.NewPage(p.URL, p.HTML)) {
				if textproc.Normalize(c.Get("name")) == textproc.Normalize(p.Truth.Attrs["name"]) &&
					c.Get("zip") == p.Truth.Attrs["zip"] {
					ok++
				}
			}
		}
		if total == 0 {
			return 0
		}
		return float64(ok) / float64(total)
	}
	b.Run("wrapper", func(b *testing.B) {
		var same, cross float64
		for i := 0; i < b.N; i++ {
			wr, err := extract.InduceWrapper("restaurant", "welp.example", exs)
			if err != nil {
				b.Fatal(err)
			}
			same = scoreBiz(wr, "welp.example")
			cross = scoreBiz(wr, "citysift.example")
		}
		b.ReportMetric(100*same, "sameSite%")
		b.ReportMetric(100*cross, "crossSite%")
	})
}

// --- A2: relational classification ---

func BenchmarkA2RelationalClassification(b *testing.B) {
	w, _, _, _ := fixture(b)
	trainNB := func(perCatBudget int) *classify.NaiveBayes {
		nb := classify.NewNaiveBayes()
		perCat := map[string]int{}
		for _, city := range w.Cities()[:2] {
			site, _ := w.SiteByHost(webgen.PortalHost(city))
			for _, p := range site.Pages {
				if perCat[p.Truth.Category] >= perCatBudget {
					continue
				}
				perCat[p.Truth.Category]++
				nb.Train(classify.Features(webgraph.NewPage(p.URL, p.HTML)), p.Truth.Category)
			}
		}
		return nb
	}
	evalCity := func(nb *classify.NaiveBayes, city string, refine bool) (float64, int) {
		site, _ := w.SiteByHost(webgen.PortalHost(city))
		st, err := webgraph.OpenDiskStore(b.TempDir(), webgraph.DiskOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		var labeled []classify.PageLabel
		truth := map[string]string{}
		for _, p := range site.Pages {
			pg := webgraph.NewPage(p.URL, p.HTML)
			st.Put(pg)
			label, probs := nb.Predict(classify.Features(pg))
			labeled = append(labeled, classify.PageLabel{URL: p.URL, Label: label, Probs: probs})
			truth[p.URL] = p.Truth.Category
		}
		final := map[string]classify.PageLabel{}
		if refine {
			final = classify.Refine(labeled, webgraph.BuildGraph(st), classify.DefaultRefineOptions())
		} else {
			for _, pl := range labeled {
				final[pl.URL] = pl
			}
		}
		ok, total := 0, 0
		for u, want := range truth {
			total++
			if final[u].Label == want {
				ok++
			}
		}
		return float64(ok) / float64(total), total
	}
	evalAll := func(nb *classify.NaiveBayes) (global, refined float64) {
		var g, r float64
		n := 0
		for _, city := range w.Cities()[2:] {
			cg, _ := evalCity(nb, city, false)
			cr, _ := evalCity(nb, city, true)
			g += cg
			r += cr
			n++
		}
		return g / float64(n), r / float64(n)
	}
	// Training-budget sweep: smaller labeled samples make the global
	// classifier noisier and the relational refinement more valuable.
	for _, budget := range []int{1, 2, 4, 8} {
		budget := budget
		b.Run(fmt.Sprintf("budget-%d", budget), func(b *testing.B) {
			nb := trainNB(budget)
			var g, r float64
			for i := 0; i < b.N; i++ {
				g, r = evalAll(nb)
			}
			b.ReportMetric(100*g, "globalAcc%")
			b.ReportMetric(100*r, "refinedAcc%")
			b.ReportMetric(100*(r-g), "gain%")
		})
	}
}

// --- A3: bootstrapping growth ---

func BenchmarkA3Bootstrap(b *testing.B) {
	w, _, _, _ := fixture(b)
	var pages []*webgraph.Page
	for _, p := range w.Pages() {
		if p.Truth.Kind == webgen.KindMenu {
			pages = append(pages, webgraph.NewPage(p.URL, p.HTML))
		}
	}
	var seeds []string
	for _, r := range w.Restaurants {
		if r.Cuisine == "italian" && len(r.Menu) >= 3 {
			seeds = r.Menu[:3]
			break
		}
	}
	var res *bootstrap.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs := &bootstrap.Bootstrapper{Concept: "menuitem", CategoryKey: "cuisine"}
		res = bs.Run(pages, map[string][]string{"italian": seeds})
	}
	truth := map[string]bool{}
	for _, r := range w.Restaurants {
		if r.Cuisine == "italian" {
			for _, d := range r.Menu {
				truth[textproc.Normalize(d)] = true
			}
		}
	}
	good := 0
	for _, c := range res.Candidates {
		if truth[textproc.Normalize(c.Get("name"))] {
			good++
		}
	}
	b.ReportMetric(float64(len(res.Candidates)), "harvested")
	b.ReportMetric(float64(len(res.Rounds)), "rounds")
	if len(res.Candidates) > 0 {
		b.ReportMetric(100*float64(good)/float64(len(res.Candidates)), "prec%")
	}
}

// --- A4: entity matching F1, exact-ID vs pairwise vs collective ---

func BenchmarkA4Matching(b *testing.B) {
	w, _, _, _ := fixture(b)
	// Build per-source records with ground-truth entity labels.
	type labeledRec struct {
		rec    *lrec.Record
		entity string
	}
	var recs []labeledRec
	for _, p := range w.Pages() {
		if p.Truth.Kind != webgen.KindBiz {
			continue
		}
		r, _ := w.RestaurantByID(p.Truth.EntityIDs[0])
		rec := lrec.NewRecord(p.URL, "restaurant").
			Set("name", p.Truth.Attrs["name"]).
			Set("street", p.Truth.Attrs["street"]).
			Set("city", p.Truth.Attrs["city"]).
			Set("zip", p.Truth.Attrs["zip"]).
			Set("phone", p.Truth.Attrs["phone"])
		recs = append(recs, labeledRec{rec, r.ID})
	}
	plain := make([]*lrec.Record, len(recs))
	entityOf := map[string]string{}
	for i, lr := range recs {
		plain[i] = lr.rec
		entityOf[lr.rec.ID] = lr.entity
	}
	pairwiseF1 := func(clusters []match.Cluster) float64 {
		// Pair-level precision/recall against entity labels.
		var tp, fp int
		inSame := map[[2]string]bool{}
		for _, cl := range clusters {
			for i := 0; i < len(cl.Members); i++ {
				for j := i + 1; j < len(cl.Members); j++ {
					a, b := cl.Members[i], cl.Members[j]
					inSame[[2]string{a, b}] = true
					if entityOf[a] == entityOf[b] {
						tp++
					} else {
						fp++
					}
				}
			}
		}
		truthPairs := 0
		byEntity := map[string][]string{}
		for id, e := range entityOf {
			byEntity[e] = append(byEntity[e], id)
		}
		for _, ids := range byEntity {
			truthPairs += len(ids) * (len(ids) - 1) / 2
		}
		if tp == 0 {
			return 0
		}
		prec := float64(tp) / float64(tp+fp)
		rec := float64(tp) / float64(truthPairs)
		return 2 * prec * rec / (prec + rec)
	}

	m := match.NewMatcher(match.RestaurantComparators())
	var exactF1, pairF1, collF1 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Baseline: exact normalized-name+zip identity.
		groups := map[string][]string{}
		for _, r := range plain {
			k := textproc.NormalizeKey(r.Get("name")) + ":" + r.Get("zip")
			groups[k] = append(groups[k], r.ID)
		}
		var exact []match.Cluster
		for _, ids := range groups {
			exact = append(exact, match.Cluster{Members: ids})
		}
		exactF1 = pairwiseF1(exact)
		pairF1 = pairwiseF1(match.PairwiseResolve(plain, m))
		collF1 = pairwiseF1(match.Resolve(plain, m, match.DefaultCollectiveOptions()))
	}
	b.ReportMetric(100*exactF1, "exactF1%")
	b.ReportMetric(100*pairF1, "pairwiseF1%")
	b.ReportMetric(100*collF1, "collectiveF1%")
}

// --- A5: ranking augmentation (homepage MRR) ---

func BenchmarkA5RankingAugmentation(b *testing.B) {
	w, _, eng, _ := fixture(b)
	var targets []*webgen.Restaurant
	for _, r := range w.Restaurants {
		if r.Homepage != "" {
			targets = append(targets, r)
		}
	}
	mrr := func(boost bool) float64 {
		hb, ab := eng.HomepageBoost, eng.AssocBoost
		if !boost {
			eng.HomepageBoost, eng.AssocBoost = 0, 0
		}
		defer func() { eng.HomepageBoost, eng.AssocBoost = hb, ab }()
		var sum float64
		for _, r := range targets {
			page := eng.Search(r.Name+" "+r.City, 10)
			want := strings.TrimSuffix(r.Homepage, "/") + "/"
			for i, res := range page.Results {
				if res.URL == want {
					sum += 1 / float64(i+1)
					break
				}
			}
		}
		return sum / float64(len(targets))
	}
	var plain, aug float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain = mrr(false)
		aug = mrr(true)
	}
	b.ReportMetric(plain, "plainMRR")
	b.ReportMetric(aug, "augMRR")
}

// --- A6: incremental maintenance vs full rebuild ---

func BenchmarkA6Maintenance(b *testing.B) {
	w, woc, _, _ := fixture(b)
	urls := woc.Pages.URLs()
	refresh := urls
	if len(refresh) > 300 {
		refresh = refresh[:300]
	}
	b.Run("refresh-unchanged", func(b *testing.B) {
		var st *core.RefreshStats
		for i := 0; i < b.N; i++ {
			var err error
			st, err = fxBld.Refresh(woc, refresh)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.PagesUnchanged), "skipped")
	})
	b.Run("full-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg := lrec.NewRegistry()
			webgen.RegisterConcepts(reg)
			bb := &core.Builder{Fetcher: w,
				Cfg: core.StandardConfig(reg, w.Cities(), webgen.Cuisines())}
			if _, _, err := bb.Build(w.SeedURLs()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- A7: advertising — keyword vs concept bidding ---

func BenchmarkA7Advertising(b *testing.B) {
	w, woc, _, _ := fixture(b)
	inv := ads.NewInventory()
	// One concept bidder per zip, one keyword bidder on generic words.
	zips := map[string]bool{}
	for _, r := range w.Restaurants {
		zips[r.Zip] = true
	}
	for z := range zips {
		inv.Add(ads.Ad{ID: "zip-" + z, Bid: 1,
			Targets: []ads.Target{{Concept: "restaurant", Key: "zip", Value: z}}})
	}
	inv.Add(ads.Ad{ID: "kw-food", Bid: 1, Keywords: []string{"restaurant", "food", "menu"}})

	recs := woc.Records.ByConcept("restaurant")
	var conceptWins, kwWins, served int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conceptWins, kwWins, served = 0, 0, 0
		for _, rec := range recs {
			ctx := ads.Context{Query: textproc.Normalize(rec.Get("name")), Record: rec}
			ps := ads.Auction(inv, ctx, 1)
			if len(ps) == 0 {
				continue
			}
			served++
			if strings.HasPrefix(ps[0].Ad.ID, "zip-") {
				// A win only counts if the targeting was actually right.
				if ps[0].Ad.ID == "zip-"+rec.Get("zip") {
					conceptWins++
				}
			} else {
				kwWins++
			}
		}
	}
	if served > 0 {
		b.ReportMetric(100*float64(conceptWins)/float64(served), "conceptWin%")
		b.ReportMetric(100*float64(kwWins)/float64(served), "keywordWin%")
	}
}

// --- A8: the lrec store ---

func BenchmarkA8StorePut(b *testing.B) {
	s := lrec.NewMemStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := lrec.NewRecord(fmt.Sprintf("r%d", i), "restaurant").
			Set("name", "Bench Cafe").Set("zip", "95014").Set("phone", "408-555-0101")
		if err := s.Put(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA8StoreGet(b *testing.B) {
	s := lrec.NewMemStore()
	for i := 0; i < 10000; i++ {
		s.Put(lrec.NewRecord(fmt.Sprintf("r%d", i), "restaurant").Set("name", "X"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(fmt.Sprintf("r%d", i%10000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA8StoreByAttr(b *testing.B) {
	s := lrec.NewMemStore()
	for i := 0; i < 5000; i++ {
		s.Put(lrec.NewRecord(fmt.Sprintf("r%d", i), "restaurant").
			Set("city", []string{"Cupertino", "San Jose", "Sunnyvale"}[i%3]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.ByAttr("restaurant", "city", "Cupertino"); len(got) == 0 {
			b.Fatal("no hits")
		}
	}
}

func BenchmarkA8StoreDurable(b *testing.B) {
	dir := b.TempDir()
	s, err := lrec.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := lrec.NewRecord(fmt.Sprintf("r%d", i), "restaurant").
			Set("name", "Bench Cafe").Set("zip", "95014")
		if err := s.Put(r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
}

// --- end-to-end search latency ---

func BenchmarkSearchLatency(b *testing.B) {
	w, _, eng, _ := fixture(b)
	var queries []string
	for _, r := range w.Restaurants[:40] {
		queries = append(queries, r.Name+" "+r.City)
		queries = append(queries, "best "+r.Cuisine+" "+strings.ToLower(r.City))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Search(queries[i%len(queries)], 8)
	}
}

// BenchmarkBuildPipeline is the end-to-end construction benchmark. The
// worker pool defaults to GOMAXPROCS, so `-cpu 1,4,8` measures the parallel
// extract/link/index speedup directly (see EXPERIMENTS.md); per-stage wall
// times from the build trace are reported as custom metrics, and successive
// PRs archive the output as BENCH_*.json.
func BenchmarkBuildPipeline(b *testing.B) {
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 40
	cfg.ReviewArticles = 10
	cfg.TVArticles = 4
	w := webgen.Generate(cfg)
	var stats *core.BuildStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := lrec.NewRegistry()
		webgen.RegisterConcepts(reg)
		bb := &core.Builder{Fetcher: w, Cfg: core.StandardConfig(reg, w.Cities(), webgen.Cuisines())}
		var err error
		if _, stats, err = bb.Build(w.SeedURLs()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if stats == nil || stats.Trace == nil {
		return
	}
	b.ReportMetric(float64(stats.Workers), "workers")
	reportHostParallelism(b)
	for _, st := range []string{"crawl", "extract", "resolve", "link", "index"} {
		if n := stats.Trace.Find(st); n != nil {
			b.ReportMetric(float64(n.Duration)/1e6, st+"_ms")
		}
	}
}

// reportHostParallelism stamps the archive-bound benchmark output with the
// host's core count and scheduler width, so archived numbers (BENCH_*.json)
// are interpretable: a worker sweep on a 1-core host measures overhead
// ceilings, not speedups.
func reportHostParallelism(b *testing.B) {
	b.ReportMetric(float64(runtime.NumCPU()), "numcpu")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}
