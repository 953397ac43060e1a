package session

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"conceptweb/internal/core"
	"conceptweb/internal/logsim"
	"conceptweb/internal/lrec"
	"conceptweb/internal/search"
	"conceptweb/internal/webgen"
)

var (
	onceBuild sync.Once
	tw        *webgen.World
	teng      *search.Engine
)

// TestMain closes the shared fixture when the package's tests are done,
// which removes its temporary page store.
func TestMain(m *testing.M) {
	code := m.Run()
	if teng != nil {
		teng.Woc.Close()
	}
	os.Exit(code)
}

func engine(t *testing.T) (*webgen.World, *search.Engine) {
	t.Helper()
	onceBuild.Do(func() {
		cfg := webgen.DefaultConfig()
		cfg.Restaurants = 60
		cfg.ReviewArticles = 24
		cfg.TVArticles = 6
		w := webgen.Generate(cfg)
		reg := lrec.NewRegistry()
		webgen.RegisterConcepts(reg)
		b := &core.Builder{Fetcher: w, Cfg: core.StandardConfig(reg, w.Cities(), webgen.Cuisines())}
		woc, _, err := b.Build(w.SeedURLs())
		if err != nil {
			panic(err)
		}
		tw = w
		teng = search.NewEngine(woc, search.NewParser(w.Cities(), webgen.Cuisines()))
	})
	return tw, teng
}

// mediaWoc hand-builds a small web of concepts holding the §5.3 browsing
// scenario: two shows sharing an actor, an article mentioning all three,
// plus a camera with an accessory.
func mediaWoc(t *testing.T) *core.WebOfConcepts {
	t.Helper()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	woc := &core.WebOfConcepts{
		Registry: reg,
		Records:  lrec.NewMemStore(lrec.WithRegistry(reg)),
		Assoc:    map[string][]string{},
		RevAssoc: map[string][]string{},
	}
	put := func(r *lrec.Record) {
		if err := woc.Records.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	put(lrec.NewRecord("show:kings", "tvshow").Set("title", "Kings Road").Set("status", "ended"))
	put(lrec.NewRecord("show:deadwood", "tvshow").Set("title", "Deadwood Creek").Set("status", "ended"))
	put(lrec.NewRecord("actor:mcshane", "actor").Set("name", "Ian McShane").
		Set("shows", "Kings Road, Deadwood Creek"))
	put(lrec.NewRecord("prod:g10", "product").Set("name", "Canox G10").Set("kind", "camera").Set("price", "$459.99"))
	put(lrec.NewRecord("prod:battery", "product").Set("name", "Canox Battery Pack for G10").
		Set("kind", "battery pack").Set("accessory_of", "prod:g10"))

	article := "tvdaily.example/article/0"
	for _, id := range []string{"show:kings", "show:deadwood", "actor:mcshane"} {
		woc.Assoc[article] = append(woc.Assoc[article], id)
		woc.RevAssoc[id] = append(woc.RevAssoc[id], article)
	}
	return woc
}

func TestUserModelHistoricalDecay(t *testing.T) {
	_, e := engine(t)
	m := NewUserModel(e.Woc)
	m.HalfLife = 10
	m.Observe(Event{Query: "jai alai schedule", Tick: 0})
	early := m.TopInterests(5)
	if len(early) == 0 || !strings.HasPrefix(early[0].Key, "term:") {
		t.Fatalf("interests = %v", early)
	}
	w0 := early[0].Weight
	// 20 ticks later, the old interest has decayed to ~1/4 weight.
	m.Observe(Event{Query: "completely different topic", Tick: 20})
	var wAfter float64
	for _, in := range m.TopInterests(0) {
		if in.Key == early[0].Key {
			wAfter = in.Weight
		}
	}
	if wAfter >= w0/2 {
		t.Errorf("no decay: %f -> %f", w0, wAfter)
	}
}

func TestUserModelSessionFocus(t *testing.T) {
	w, e := engine(t)
	m := NewUserModel(e.Woc)
	// Click three restaurants in the same city.
	city := ""
	n := 0
	for _, r := range w.Restaurants {
		recs := e.Woc.Records.ByAttr("restaurant", "phone", r.Phone)
		if len(recs) != 1 {
			continue
		}
		if city == "" {
			city = r.City
		}
		if r.City != city {
			continue
		}
		m.Observe(Event{RecordID: recs[0].ID, Tick: n})
		n++
		if n == 3 {
			break
		}
	}
	if n < 3 {
		t.Skip("not enough resolved restaurants in one city")
	}
	focus := m.SessionFocus()
	key := "city:" + strings.ToLower(city)
	if focus[key] <= 0 {
		t.Errorf("session focus lacks %q: %v", key, focus)
	}
	if got := m.SessionRecords(); len(got) != 3 {
		t.Errorf("session records = %v", got)
	}
}

func TestAlternativesSameCitySameCuisine(t *testing.T) {
	w, e := engine(t)
	rc := &Recommender{Woc: e.Woc}
	// Find a restaurant with at least one same-city same-cuisine peer.
	for _, r := range w.Restaurants {
		recs := e.Woc.Records.ByAttr("restaurant", "phone", r.Phone)
		if len(recs) != 1 {
			continue
		}
		alts, err := rc.Alternatives(recs[0].ID, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range alts {
			if a.Record.ID == recs[0].ID {
				t.Fatal("self-recommendation")
			}
			if a.Record.Get("city") != r.City && a.Record.Get("cuisine") != r.Cuisine {
				t.Errorf("alternative %s shares neither city nor cuisine", a.Record.ID)
			}
		}
		if len(alts) > 0 {
			return // found a meaningful case and it passed
		}
	}
	t.Skip("no restaurant with alternatives at this size")
}

func TestAlternativesSuppressWorseRated(t *testing.T) {
	woc := mediaWoc(t)
	put := func(id, city, cuisine, rating string) {
		r := lrec.NewRecord(id, "restaurant").Set("name", id).
			Set("city", city).Set("cuisine", cuisine).Set("rating", rating)
		if err := woc.Records.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	put("good", "Cupertino", "thai", "4.5")
	put("peer", "Cupertino", "thai", "4.4")
	put("bad", "Cupertino", "thai", "2.0")
	rc := &Recommender{Woc: woc}
	alts, err := rc.Alternatives("good", 10)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, a := range alts {
		ids[a.Record.ID] = true
	}
	if !ids["peer"] {
		t.Error("similar-quality alternative missing")
	}
	if ids["bad"] {
		t.Error("clearly worse alternative not suppressed")
	}
}

func TestAugmentationsAccessory(t *testing.T) {
	woc := mediaWoc(t)
	rc := &Recommender{Woc: woc}
	augs, err := rc.Augmentations("prod:g10", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(augs) == 0 || augs[0].Record.ID != "prod:battery" {
		t.Fatalf("augmentations = %+v", augs)
	}
	// The battery augments the camera; the camera must not be *suppressed*
	// as an augmentation of the battery either (reverse direction).
	back, _ := rc.Augmentations("prod:battery", 5)
	found := false
	for _, a := range back {
		if a.Record.ID == "prod:g10" {
			found = true
		}
	}
	if !found {
		t.Error("reverse accessory link missing")
	}
}

func TestBrowsePivotScenario(t *testing.T) {
	// The §5.3 user journey: article about Kings -> concept page for the
	// actor -> concept page for Deadwood, via semantic linking pivots.
	woc := mediaWoc(t)
	article := "tvdaily.example/article/0"
	// Pivot 1: article -> concepts.
	ids := woc.AssocOf(article)
	if len(ids) != 3 {
		t.Fatalf("article concepts = %v", ids)
	}
	// Pivot 2: actor record -> its articles -> sibling concepts.
	arts := woc.PagesOf("actor:mcshane")
	if len(arts) != 1 || arts[0] != article {
		t.Fatalf("actor articles = %v", arts)
	}
	reachable := map[string]bool{}
	for _, a := range arts {
		for _, id := range woc.AssocOf(a) {
			reachable[id] = true
		}
	}
	if !reachable["show:deadwood"] {
		t.Error("cannot pivot from Kings article through actor to Deadwood")
	}
}

func TestPersonalizedRankBirksScenario(t *testing.T) {
	// Two same-name candidates: a jeweler and a steakhouse. A session spent
	// on restaurants in one zip must rank the steakhouse first.
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	reg.Register(lrec.Concept{Name: "business", Domain: "local",
		Attrs: []lrec.AttrSpec{{Key: "name"}, {Key: "kind"}, {Key: "city"}, {Key: "zip"}}})
	woc := &core.WebOfConcepts{Registry: reg,
		Records: lrec.NewMemStore(lrec.WithRegistry(reg)),
		Assoc:   map[string][]string{}, RevAssoc: map[string][]string{}}

	jeweler := lrec.NewRecord("biz:birks-jeweler", "business").
		Set("name", "Birks and Mayors").Set("kind", "jeweler").Set("city", "Toronto")
	steak := lrec.NewRecord("rest:birks-steak", "restaurant").
		Set("name", "Birk's Steakhouse").Set("cuisine", "american").
		Set("city", "Santa Clara").Set("zip", "95054")
	other := lrec.NewRecord("rest:other-steak", "restaurant").
		Set("name", "Valley Chophouse").Set("cuisine", "american").
		Set("city", "Santa Clara").Set("zip", "95054")
	for _, r := range []*lrec.Record{jeweler, steak, other} {
		if err := woc.Records.Put(r); err != nil {
			t.Fatal(err)
		}
	}

	m := NewUserModel(woc)
	m.Observe(Event{RecordID: "rest:other-steak", Tick: 1})
	m.Observe(Event{RecordID: "rest:other-steak", Tick: 2})

	rc := &Recommender{Woc: woc}
	recs := []Recommendation{
		{Record: jeweler, Score: 1.0},
		{Record: steak, Score: 1.0},
	}
	ranked := rc.PersonalizedRank(m, recs)
	if ranked[0].Record.ID != "rest:birks-steak" {
		t.Errorf("session context did not disambiguate: %+v", ranked[0].Record.ID)
	}
	// Without session context, order is alphabetical-stable (jeweler first).
	fresh := rc.PersonalizedRank(NewUserModel(woc), recs)
	if fresh[0].Record.ID != "biz:birks-jeweler" {
		t.Errorf("baseline order unexpected: %v", fresh[0].Record.ID)
	}
}

func TestTable1AllCells(t *testing.T) {
	w, e := engine(t)
	tr := NewTransitions(e)

	// Every non-empty cell has a name; the empty cell does not.
	if CellName(ArticlePage, ResultPage) != "" {
		t.Error("article->result should be the empty cell")
	}
	filled := 0
	for _, p := range []PageType{ResultPage, ConceptPage, ArticlePage} {
		for _, q := range []PageType{ResultPage, ConceptPage, ArticlePage} {
			if CellName(p, q) != "" {
				filled++
			}
		}
	}
	if filled != 8 {
		t.Errorf("filled cells = %d, want 8", filled)
	}

	// Exercise each implemented technology on real data.
	var r *webgen.Restaurant
	var recID string
	for _, cand := range w.Restaurants {
		if cand.Homepage == "" {
			continue
		}
		recs := e.Woc.Records.ByAttr("restaurant", "phone", cand.Phone)
		if len(recs) == 1 {
			r, recID = cand, recs[0].ID
			break
		}
	}
	if r == nil {
		t.Fatal("no test restaurant")
	}
	q := r.Cuisine + " " + strings.ToLower(r.City)

	if got := tr.ResultToResult(q, 5); len(got) == 0 {
		t.Error("assistance empty")
	}
	if got := tr.ResultToConcept(q, 5); len(got) == 0 {
		t.Error("concept search empty")
	}
	if got := tr.ResultToArticle(q, 5); len(got) == 0 {
		t.Error("vanilla search empty")
	}
	if got := tr.ConceptToResult(recID, r.Menu[0], 5); len(got) == 0 {
		t.Error("search within concept empty")
	}
	if got := tr.ConceptToConcept(recID, 5); len(got) == 0 {
		t.Error("concept recommendation empty")
	}
	if got := tr.ConceptToArticle(recID, 5); len(got) == 0 {
		t.Error("concept->article semantic linking empty")
	}
	arts := tr.ConceptToArticle(recID, 5)
	if got := tr.ArticleToConcept(arts[0].Target, 5); len(got) == 0 {
		t.Error("article->concept semantic linking empty")
	}
	if got := tr.ArticleToArticle(arts[0].Target, 5); len(got) == 0 {
		t.Error("related pages empty")
	}
}

func TestRelatedPagesAreTopical(t *testing.T) {
	w, e := engine(t)
	tr := NewTransitions(e)
	// A menu page's most related pages should come from the same site or
	// same restaurant (shared dishes, shared name).
	var menuURL, host string
	for _, p := range w.Pages() {
		if p.Truth.Kind == webgen.KindMenu {
			menuURL = p.URL
			host = p.Truth.Site
			break
		}
	}
	if menuURL == "" {
		t.Fatal("no menu page")
	}
	links := tr.ArticleToArticle(menuURL, 3)
	if len(links) == 0 {
		t.Fatal("no related pages")
	}
	sameSite := 0
	for _, l := range links {
		if strings.HasPrefix(l.Target, host) {
			sameSite++
		}
	}
	if sameSite == 0 {
		t.Errorf("none of the top related pages are from %s: %+v", host, links)
	}
}

func TestScoreContentJaiAlaiScenario(t *testing.T) {
	// Two articles: one about shows the user follows, one unrelated. The
	// interested user ranks the first higher; a fresh user is indifferent.
	woc := mediaWoc(t)
	other := "tvdaily.example/article/other"
	otherShow := lrec.NewRecord("show:other", "tvshow").Set("title", "Foggy Shore").Set("status", "running")
	if err := woc.Records.Put(otherShow); err != nil {
		t.Fatal(err)
	}
	woc.Assoc[other] = []string{"show:other"}
	woc.RevAssoc["show:other"] = []string{other}

	m := NewUserModel(woc)
	m.Observe(Event{RecordID: "show:kings", Tick: 1})
	m.Observe(Event{RecordID: "actor:mcshane", Tick: 2})

	urls := []string{other, "tvdaily.example/article/0"}
	ranked := m.ScoreContent(urls, 2)
	if ranked[0].URL != "tvdaily.example/article/0" {
		t.Errorf("interest-matched article not first: %+v", ranked)
	}
	if len(ranked[0].MatchedInterests) == 0 {
		t.Error("no matched interests recorded")
	}
	fresh := NewUserModel(woc).ScoreContent(urls, 2)
	if fresh[0].Score != 0 || fresh[1].Score != 0 {
		t.Errorf("fresh user should be indifferent: %+v", fresh)
	}
}

func TestBuildFrontPageSessionTask(t *testing.T) {
	// A session of steak restaurants in zip 95054 should surface the other
	// 95054 restaurants as task records.
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	woc := &core.WebOfConcepts{Registry: reg,
		Records: lrec.NewMemStore(lrec.WithRegistry(reg)),
		Assoc:   map[string][]string{}, RevAssoc: map[string][]string{}}
	for i, name := range []string{"Birk's Steakhouse", "Valley Chophouse", "Prime Cut"} {
		r := lrec.NewRecord(fmt.Sprintf("rest:%d", i), "restaurant").
			Set("name", name).Set("zip", "95054").Set("city", "Santa Clara")
		if err := woc.Records.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	m := NewUserModel(woc)
	m.Observe(Event{RecordID: "rest:0", Tick: 1})
	m.Observe(Event{RecordID: "rest:1", Tick: 2})
	fp := m.BuildFrontPage(nil, 5)
	if len(fp.TaskRecords) == 0 {
		t.Fatal("no task records inferred")
	}
	found := false
	for _, id := range fp.TaskRecords {
		if id == "rest:2" {
			found = true
		}
		if id == "rest:0" || id == "rest:1" {
			t.Errorf("already-seen record recommended: %s", id)
		}
	}
	if !found {
		t.Errorf("unseen 95054 restaurant missing: %v", fp.TaskRecords)
	}
}

// TestTrailsDriveUserModel closes the §5.3 loop: simulated toolbar trails
// feed the user model through semantic page→record associations, and the
// model's session focus reflects what the user actually browsed.
func TestTrailsDriveUserModel(t *testing.T) {
	w, e := engine(t)
	logs := logsim.NewSimulator(w, logsim.DefaultConfig()).Run()
	m := NewUserModel(e.Woc)
	tick := 0
	fed := 0
	for _, tr := range logs.Trails {
		for _, u := range tr.Pages {
			if strings.HasPrefix(u, logsim.SERPPrefix) {
				m.Observe(Event{Query: strings.TrimPrefix(u, logsim.SERPPrefix), Tick: tick})
				tick++
				continue
			}
			for _, rid := range e.Woc.AssocOf(u) {
				m.Observe(Event{RecordID: rid, URL: u, Tick: tick})
				tick++
				fed++
			}
		}
		if fed > 60 {
			break
		}
	}
	if fed == 0 {
		t.Fatal("no trail pages resolved to records")
	}
	interests := m.TopInterests(10)
	if len(interests) == 0 {
		t.Fatal("no interests learned")
	}
	hasConcept := false
	for _, in := range interests {
		if in.Key == "concept:restaurant" {
			hasConcept = true
		}
	}
	if !hasConcept {
		t.Errorf("restaurant browsing did not register: %v", interests)
	}
}
