// Package webgen generates a deterministic synthetic web with ground truth.
//
// The paper's evaluation substrate — the live web plus Yahoo! Search and
// Toolbar logs — is proprietary and unavailable, so this package synthesizes
// the closest equivalent that exercises the same code paths: multi-domain
// entities (restaurants, academics, products, TV) rendered through per-site
// HTML templates with realistic structural regularity, naming variation,
// missing attributes, and stale data. Every page carries ground truth so
// extraction, matching, and application layers can be scored; the package
// internal/logsim generates user behaviour over this web.
package webgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"conceptweb/internal/lrec"
)

// Config controls world size. The zero value is unusable; use DefaultConfig.
type Config struct {
	Seed               int64
	Restaurants        int
	Cities             int // number of cities used (max len(cityNames))
	Authors            int
	Papers             int
	Cameras            int
	Shows              int
	Actors             int
	EventsPerCity      int
	HotelsPerCity      int
	AttractionsPerCity int
	ReviewArticles     int // review-blog articles about restaurants
	TVArticles         int // entertainment articles about shows/actors
}

// DefaultConfig returns a laptop-scale world: large enough that every
// experiment has signal, small enough for unit tests.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		Restaurants:        120,
		Cities:             6,
		Authors:            40,
		Papers:             90,
		Cameras:            12,
		Shows:              10,
		Actors:             30,
		EventsPerCity:      8,
		HotelsPerCity:      4,
		AttractionsPerCity: 4,
		ReviewArticles:     80,
		TVArticles:         20,
	}
}

// Page kinds (PageTruth.Kind).
const (
	KindBiz         = "biz"          // aggregator page about one business
	KindSearch      = "search"       // aggregator search-results page
	KindCategory    = "category"     // aggregator pre-defined category page
	KindPortalIndex = "portal-index" // city-portal directory listing
	KindPortalLeaf  = "portal-leaf"  // city-portal leaf page
	KindHome        = "home"         // official restaurant homepage
	KindMenu        = "menu"         // homepage menu subpage
	KindLocation    = "location"     // homepage location subpage
	KindCoupons     = "coupons"      // homepage coupons subpage
	KindReviewPost  = "review-post"  // blog article reviewing restaurants
	KindAuthorHome  = "author-home"  // researcher homepage
	KindPaper       = "paper"        // paper detail page
	KindVenueIndex  = "venue-index"  // conference year index
	KindProduct     = "product"      // shop catalog product page
	KindProductList = "product-list" // shop catalog listing
	KindProductRev  = "product-review"
	KindShow        = "show"       // media site show page
	KindActor       = "actor"      // media site actor page
	KindTVArticle   = "tv-article" // entertainment article
	KindEvent       = "event"      // city calendar event page
	KindSiteIndex   = "site-index" // synthetic site-map root
)

// Page categories for relational classification (§4.2). A page's category is
// what a "global events classifier" would try to predict.
const (
	CatRestaurants = "restaurants"
	CatEvents      = "events"
	CatHotels      = "hotels"
	CatAttractions = "attractions"
	CatOther       = "other"
)

// PageTruth is the ground truth attached to a generated page.
type PageTruth struct {
	Kind      string
	Category  string
	Site      string
	EntityIDs []string          // entities genuinely described/mentioned
	Attrs     map[string]string // true attribute values exposed on this page
	// Stale marks pages publishing outdated values (OldPhone/OldStreet).
	Stale bool
}

// Page is one generated web page.
type Page struct {
	URL   string
	HTML  string
	Truth PageTruth
}

// Site groups the pages of one website and its template "style".
type Site struct {
	Host  string
	Style string // template family; wrapper induction is per (host, kind)
	Pages []*Page
}

// World is the complete synthetic web plus its ground truth.
type World struct {
	Cfg Config

	Restaurants []*Restaurant
	Authors     []*Author
	Papers      []*Paper
	Products    []*Product
	Shows       []*Show
	Actors      []*Actor
	Events      []*Event
	Hotels      []*Hotel
	Attractions []*Attraction

	Sites   []*Site
	pageMap map[string]*Page

	restByID map[string]*Restaurant
	authByID map[string]*Author
	papByID  map[string]*Paper
	prodByID map[string]*Product
	showByID map[string]*Show
	actByID  map[string]*Actor
	evByID   map[string]*Event

	// ReviewTruth maps review-post page URL -> restaurant IDs it reviews.
	ReviewTruth map[string][]string

	rng *rand.Rand
}

// Generate builds the world deterministically from cfg.
func Generate(cfg Config) *World {
	if cfg.Cities <= 0 || cfg.Cities > len(cityNames) {
		cfg.Cities = len(cityNames)
	}
	w := &World{
		Cfg:         cfg,
		pageMap:     make(map[string]*Page),
		restByID:    make(map[string]*Restaurant),
		authByID:    make(map[string]*Author),
		papByID:     make(map[string]*Paper),
		prodByID:    make(map[string]*Product),
		showByID:    make(map[string]*Show),
		actByID:     make(map[string]*Actor),
		evByID:      make(map[string]*Event),
		ReviewTruth: make(map[string][]string),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
	}
	w.genRestaurants()
	w.genAcademics()
	w.genProducts()
	w.genMedia()
	w.genCityEntities()

	w.buildAggregatorSites()
	w.buildHomepageSites()
	w.buildCityPortals()
	w.buildReviewBlogs()
	w.buildAcademicSites()
	w.buildShoppingSites()
	w.buildMediaSites()
	w.addSiteRoots()
	return w
}

// addSiteRoots gives every site lacking a root page a site-map index linking
// all of its pages, so the whole world is reachable from the site roots, and
// fills in the /about, /contact, /help boilerplate the standard nav links to.
func (w *World) addSiteRoots() {
	for _, s := range w.Sites {
		if s.Style == "home" {
			continue // official homepages use their own nav, already complete
		}
		for _, path := range []string{"/about", "/contact", "/help"} {
			if _, ok := w.pageMap[s.Host+path]; ok {
				continue
			}
			var b hb
			b.el("h1", "", titleCase(strings.TrimPrefix(path, "/")))
			b.el("p", "", "Information about "+s.Host+", our editorial team, and how to reach us.")
			w.addPage(s, path, pageShell(titleCase(strings.TrimPrefix(path, "/")), s.Host, stdNav(s.Host), b.String()),
				PageTruth{Kind: KindSiteIndex, Category: CatOther})
		}
	}
	for _, s := range w.Sites {
		if _, ok := w.pageMap[s.Host+"/"]; ok {
			continue
		}
		var h hb
		h.el("h1", "", s.Host)
		h.open("ul", `class="site-map"`)
		for _, p := range s.Pages {
			h.open("li", "")
			h.a(p.URL, strings.TrimPrefix(p.URL, s.Host))
			h.close("li")
		}
		h.close("ul")
		w.addPage(s, "/", pageShell(s.Host, s.Host, stdNav(s.Host), h.String()),
			PageTruth{Kind: KindSiteIndex, Category: CatOther})
	}
}

// SeedURLs returns the root URL of every site — the standard crawl frontier.
func (w *World) SeedURLs() []string {
	out := make([]string, 0, len(w.Sites))
	for _, s := range w.Sites {
		out = append(out, s.Host+"/")
	}
	return out
}

// Fetch implements the crawler's Fetcher interface over the synthetic web.
func (w *World) Fetch(url string) (string, error) {
	p, ok := w.pageMap[url]
	if !ok {
		return "", fmt.Errorf("webgen: no page at %s", url)
	}
	return p.HTML, nil
}

// Cities returns the active city names.
func (w *World) Cities() []string {
	return cityNames[:w.Cfg.Cities]
}

// Pages returns all pages of all sites, in generation order.
func (w *World) Pages() []*Page {
	var out []*Page
	for _, s := range w.Sites {
		out = append(out, s.Pages...)
	}
	return out
}

// PageByURL returns the page at url, if it exists.
func (w *World) PageByURL(url string) (*Page, bool) {
	p, ok := w.pageMap[url]
	return p, ok
}

// SiteByHost returns the site with the given host, if it exists.
func (w *World) SiteByHost(host string) (*Site, bool) {
	for _, s := range w.Sites {
		if s.Host == host {
			return s, true
		}
	}
	return nil, false
}

func (w *World) addSite(host, style string) *Site {
	s := &Site{Host: host, Style: style}
	w.Sites = append(w.Sites, s)
	return s
}

func (w *World) addPage(s *Site, path, html string, truth PageTruth) *Page {
	truth.Site = s.Host
	url := s.Host + path
	if existing, ok := w.pageMap[url]; ok {
		// Name collisions (two entities slugifying identically) keep the
		// first page; the web has one page per URL.
		return existing
	}
	p := &Page{URL: url, HTML: html, Truth: truth}
	s.Pages = append(s.Pages, p)
	w.pageMap[p.URL] = p
	return p
}

// --- entity generation ---

func (w *World) genRestaurants() {
	used := make(map[string]bool)
	phoneLast := 100
	for i := 0; i < w.Cfg.Restaurants; i++ {
		var name string
		for tries := 0; ; tries++ {
			name = fmt.Sprintf("%s %s %s",
				pick(w.rng, restaurantFirst), pick(w.rng, restaurantSecond), pick(w.rng, restaurantSuffix))
			if !used[name] || tries > 20 {
				break
			}
		}
		used[name] = true
		city := w.Cities()[w.rng.Intn(w.Cfg.Cities)]
		cuisine := pick(w.rng, cuisines)
		zip := fmt.Sprintf("%05d", cityZipBase[city]+w.rng.Intn(3))
		phoneLast++
		r := &Restaurant{
			ID:      fmt.Sprintf("rest-%03d", i),
			Name:    name,
			Street:  fmt.Sprintf("%d %s", 100+w.rng.Intn(9900), pick(w.rng, streetNames)),
			City:    city,
			State:   "CA",
			Zip:     zip,
			Phone:   formatPhone(408, 555, phoneLast, 0),
			Cuisine: cuisine,
			Price:   strings.Repeat("$", 1+w.rng.Intn(4)),
			Rating:  float64(20+w.rng.Intn(31)) / 10, // 2.0 .. 5.0
			Hours:   fmt.Sprintf("Mon-Sun %d:00-%d:00", 10+w.rng.Intn(2), 20+w.rng.Intn(3)),
			// Sparse menus (4-7 of the cuisine's 12 dishes) keep menu overlap
			// between restaurants low enough that bootstrapping needs several
			// rounds to spread — the A3 growth curve.
			Menu: pickN(w.rng, menuItems[cuisine], 4+w.rng.Intn(4)),
		}
		if w.rng.Float64() < 0.5 {
			r.Coupons = []string{
				fmt.Sprintf("%d%% off lunch special", 10+5*w.rng.Intn(4)),
				"free dessert with entree",
			}[:1+w.rng.Intn(2)]
		}
		if w.rng.Float64() < 0.85 {
			r.Homepage = slugify(r.Name) + ".example/"
		}
		if w.rng.Float64() < 0.10 {
			// Restaurant moved / changed phone; stale sources use old values.
			phoneLast++
			r.OldPhone = formatPhone(408, 555, phoneLast, 0)
			r.OldStreet = fmt.Sprintf("%d %s", 100+w.rng.Intn(9900), pick(w.rng, streetNames))
		}
		w.Restaurants = append(w.Restaurants, r)
		w.restByID[r.ID] = r
	}
}

func (w *World) genAcademics() {
	usedNames := make(map[string]bool)
	for i := 0; i < w.Cfg.Authors; i++ {
		var name string
		for tries := 0; ; tries++ {
			name = pick(w.rng, personFirst) + " " + pick(w.rng, personLast)
			if !usedNames[name] || tries > 30 {
				break
			}
		}
		usedNames[name] = true
		a := &Author{
			ID:          fmt.Sprintf("auth-%03d", i),
			Name:        name,
			Affiliation: pick(w.rng, affiliations),
		}
		a.Homepage = "people." + slugify(a.Affiliation) + ".example/~" + slugify(a.Name)
		w.Authors = append(w.Authors, a)
		w.authByID[a.ID] = a
	}
	for i := 0; i < w.Cfg.Papers; i++ {
		title := fmt.Sprintf("%s %s %s",
			pick(w.rng, paperTopicA), pick(w.rng, paperTopicB), pick(w.rng, paperTopicC))
		p := &Paper{
			ID:    fmt.Sprintf("pap-%03d", i),
			Title: title,
			Venue: pick(w.rng, venues),
			Year:  2003 + w.rng.Intn(7),
		}
		nAuth := 1 + w.rng.Intn(3)
		perm := w.rng.Perm(len(w.Authors))
		for j := 0; j < nAuth && j < len(perm); j++ {
			a := w.Authors[perm[j]]
			p.AuthorIDs = append(p.AuthorIDs, a.ID)
			a.PaperIDs = append(a.PaperIDs, p.ID)
		}
		w.Papers = append(w.Papers, p)
		w.papByID[p.ID] = p
	}
}

func (w *World) genProducts() {
	n := 0
	for i := 0; i < w.Cfg.Cameras; i++ {
		brand := cameraBrands[i%len(cameraBrands)]
		model := fmt.Sprintf("%c%d0", 'A'+byte(w.rng.Intn(6)), 1+w.rng.Intn(9))
		cam := &Product{
			ID:         fmt.Sprintf("prod-%03d", n),
			Brand:      brand,
			Model:      model,
			Name:       brand + " " + model,
			Kind:       "camera",
			Price:      fmt.Sprintf("$%d.99", 299+50*w.rng.Intn(15)),
			Megapixels: float64(10 + w.rng.Intn(30)),
		}
		n++
		w.Products = append(w.Products, cam)
		w.prodByID[cam.ID] = cam
		for _, acc := range pickN(w.rng, cameraAccessories, 2+w.rng.Intn(3)) {
			ap := &Product{
				ID:          fmt.Sprintf("prod-%03d", n),
				Brand:       brand,
				Model:       model + "-" + slugify(acc)[:3],
				Name:        brand + " " + titleCase(acc) + " for " + model,
				Kind:        acc,
				Price:       fmt.Sprintf("$%d.99", 19+10*w.rng.Intn(8)),
				AccessoryOf: cam.ID,
			}
			n++
			w.Products = append(w.Products, ap)
			w.prodByID[ap.ID] = ap
		}
	}
}

func (w *World) genMedia() {
	for i := 0; i < w.Cfg.Actors; i++ {
		a := &Actor{
			ID:   fmt.Sprintf("act-%03d", i),
			Name: pick(w.rng, personFirst) + " " + pick(w.rng, personLast),
		}
		w.Actors = append(w.Actors, a)
		w.actByID[a.ID] = a
	}
	for i := 0; i < w.Cfg.Shows && i < len(tvShowWords); i++ {
		start := 1998 + w.rng.Intn(10)
		s := &Show{
			ID:    fmt.Sprintf("show-%03d", i),
			Title: tvShowWords[i],
			Years: fmt.Sprintf("%d-%d", start, start+1+w.rng.Intn(5)),
			Ended: w.rng.Float64() < 0.5,
		}
		// 2-5 actors per show; actors deliberately recur across shows so the
		// "same actor in Kings and Deadwood" pivot exists.
		perm := w.rng.Perm(len(w.Actors))
		for j := 0; j < 2+w.rng.Intn(4) && j < len(perm); j++ {
			a := w.Actors[perm[j]]
			s.ActorIDs = append(s.ActorIDs, a.ID)
			a.ShowIDs = append(a.ShowIDs, s.ID)
		}
		w.Shows = append(w.Shows, s)
		w.showByID[s.ID] = s
	}
}

func (w *World) genCityEntities() {
	ev := 0
	for _, city := range w.Cities() {
		for i := 0; i < w.Cfg.EventsPerCity; i++ {
			e := &Event{
				ID:    fmt.Sprintf("ev-%03d", ev),
				Name:  titleCase(pick(w.rng, eventKinds)),
				City:  city,
				Venue: fmt.Sprintf("%s Community Center", city),
				Date:  fmt.Sprintf("2009-%02d-%02d", 1+w.rng.Intn(12), 1+w.rng.Intn(28)),
			}
			ev++
			w.Events = append(w.Events, e)
			w.evByID[e.ID] = e
		}
		for i := 0; i < w.Cfg.HotelsPerCity; i++ {
			h := &Hotel{
				ID:     fmt.Sprintf("hot-%s-%d", slugify(city), i),
				Name:   pick(w.rng, hotelWords),
				City:   city,
				Street: fmt.Sprintf("%d %s", 100+w.rng.Intn(9900), pick(w.rng, streetNames)),
				Phone:  formatPhone(408, 777, 100+len(w.Hotels), 0),
			}
			w.Hotels = append(w.Hotels, h)
		}
		for i := 0; i < w.Cfg.AttractionsPerCity; i++ {
			w.Attractions = append(w.Attractions, &Attraction{
				ID:   fmt.Sprintf("att-%s-%d", slugify(city), i),
				Name: titleCase(city + " " + pick(w.rng, attractionWords)),
				City: city,
			})
		}
	}
}

// --- ground-truth lookups ---

// RestaurantByID returns the restaurant ground truth, if present.
func (w *World) RestaurantByID(id string) (*Restaurant, bool) {
	r, ok := w.restByID[id]
	return r, ok
}

// AuthorByID returns the author ground truth, if present.
func (w *World) AuthorByID(id string) (*Author, bool) { a, ok := w.authByID[id]; return a, ok }

// PaperByID returns the paper ground truth, if present.
func (w *World) PaperByID(id string) (*Paper, bool) { p, ok := w.papByID[id]; return p, ok }

// ProductByID returns the product ground truth, if present.
func (w *World) ProductByID(id string) (*Product, bool) { p, ok := w.prodByID[id]; return p, ok }

// TruthRecord returns the canonical lrec for an entity ID, across all entity
// types — the record a perfect extraction pipeline would produce.
func (w *World) TruthRecord(id string) (*lrec.Record, bool) {
	if r, ok := w.restByID[id]; ok {
		rec := lrec.NewRecord(id, ConceptRestaurant).
			Set("name", r.Name).Set("street", r.Street).Set("city", r.City).
			Set("state", r.State).Set("zip", r.Zip).Set("phone", r.Phone).
			Set("cuisine", r.Cuisine).Set("price", r.Price).
			Set("rating", fmt.Sprintf("%.1f", r.Rating)).Set("hours", r.Hours).
			Set("menu", strings.Join(r.Menu, "; "))
		if r.Homepage != "" {
			rec.Set("homepage", r.Homepage)
		}
		return rec, true
	}
	if a, ok := w.authByID[id]; ok {
		return lrec.NewRecord(id, ConceptAuthor).
			Set("name", a.Name).Set("affiliation", a.Affiliation).
			Set("homepage", a.Homepage), true
	}
	if p, ok := w.papByID[id]; ok {
		names := make([]string, len(p.AuthorIDs))
		for i, aid := range p.AuthorIDs {
			names[i] = w.authByID[aid].Name
		}
		return lrec.NewRecord(id, ConceptPaper).
			Set("title", p.Title).Set("venue", p.Venue).
			Set("year", fmt.Sprintf("%d", p.Year)).
			Set("authors", strings.Join(names, ", ")), true
	}
	if p, ok := w.prodByID[id]; ok {
		rec := lrec.NewRecord(id, ConceptProduct).
			Set("name", p.Name).Set("brand", p.Brand).Set("model", p.Model).
			Set("kind", p.Kind).Set("price", p.Price)
		if p.Megapixels > 0 {
			rec.Set("megapixels", fmt.Sprintf("%.0f", p.Megapixels))
		}
		if p.AccessoryOf != "" {
			rec.Set("accessory_of", p.AccessoryOf)
		}
		return rec, true
	}
	if s, ok := w.showByID[id]; ok {
		status := "running"
		if s.Ended {
			status = "ended"
		}
		return lrec.NewRecord(id, ConceptShow).
			Set("title", s.Title).Set("years", s.Years).Set("status", status), true
	}
	if a, ok := w.actByID[id]; ok {
		titles := make([]string, len(a.ShowIDs))
		for i, sid := range a.ShowIDs {
			titles[i] = w.showByID[sid].Title
		}
		return lrec.NewRecord(id, ConceptActor).
			Set("name", a.Name).Set("shows", strings.Join(titles, ", ")), true
	}
	if e, ok := w.evByID[id]; ok {
		return lrec.NewRecord(id, ConceptEvent).
			Set("name", e.Name).Set("city", e.City).
			Set("venue", e.Venue).Set("date", e.Date), true
	}
	return nil, false
}

// RestaurantsInCity returns the restaurants located in city, sorted by ID.
func (w *World) RestaurantsInCity(city string) []*Restaurant {
	var out []*Restaurant
	for _, r := range w.Restaurants {
		if r.City == city {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
