// Package woc is the public API of the web-of-concepts system: build a
// concept-centric view of a document web from any page fetcher, then query
// it — web search with concept boxes, concept search, aggregation pages,
// recommendations, lineage, and incremental maintenance.
//
// The heavy machinery (extraction, entity matching, classification, the
// lrec store) lives in internal packages; this facade exposes plain view
// types so downstream users never touch internals:
//
//	sys, err := woc.Build(fetcher, seeds, woc.WithLocalDomain(cities, cuisines))
//	defer sys.Close()
//	page := sys.Search("gochi cupertino", 10)
//	if page.Box != nil { fmt.Println(page.Box.Name, page.Box.Address) }
//
// A system directory is a system too: BuildDir (what `wocbuild -out DIR`
// runs) writes one, and Open reopens it without building anything again.
package woc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"conceptweb/internal/core"
	"conceptweb/internal/framelog"
	"conceptweb/internal/lrec"
	"conceptweb/internal/obs"
	"conceptweb/internal/search"
	"conceptweb/internal/session"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// ErrNotFound is returned when a record ID does not exist.
var ErrNotFound = errors.New("woc: record not found")

// Fetcher retrieves the HTML of a URL. URLs are "host/path" strings.
type Fetcher func(url string) (html string, err error)

// Option configures a Build.
type Option func(*buildConfig)

type buildConfig struct {
	cities   []string
	cuisines []string
	storeDir string
}

// WithLocalDomain sets the local-domain gazetteer knowledge (cities and
// cuisine categories) used by extraction and query parsing.
func WithLocalDomain(cities, cuisines []string) Option {
	return func(c *buildConfig) {
		c.cities = cities
		c.cuisines = cuisines
	}
}

// WithStoreDir persists the concept store durably in dir (WAL + snapshots).
func WithStoreDir(dir string) Option {
	return func(c *buildConfig) { c.storeDir = dir }
}

// System is a built web of concepts with its application layers. Its pages
// live in a page store on disk — in a temporary directory for a System from
// Build, which Close removes, so every System must be closed.
//
// Every System finishes the same way: Build, Open and each Refresh that
// changed records end with menu enrichment (core.Builder.EnrichMenus), so a
// restaurant record with a homepage carries the menu its homepage site
// lists however the system came to hold it.
//
// All methods are safe for concurrent use: read methods (Search, Aggregate,
// …) hold a shared lock while maintenance (Refresh, Reconcile) holds it
// exclusively, so a reader never observes a half-applied refresh — every
// response is computed against a single data generation (see Epoch).
type System struct {
	builder  *core.Builder
	woc      *core.WebOfConcepts
	engine   *search.Engine
	trans    *session.Transitions
	stats    *core.BuildStats
	metrics  *obs.Registry
	manifest Manifest

	// mu is the read/maintenance seam: the store and index have their own
	// fine-grained locks, but nothing else guards the association maps and
	// engine state that Refresh/Reconcile mutate, so the facade serializes
	// maintenance against the whole read path.
	mu sync.RWMutex
}

// Epoch returns the current data generation: it advances whenever Refresh or
// Reconcile changes visible state. Cache results keyed by (query, epoch) and
// a maintenance pass invalidates the whole cache in O(1) — stale keys are
// simply never asked for again.
func (s *System) Epoch() uint64 { return s.woc.Epoch() }

// Build crawls from seeds through the fetcher and constructs the system.
func Build(fetch Fetcher, seeds []string, opts ...Option) (*System, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	coreCfg := core.StandardConfig(reg, cfg.cities, cfg.cuisines)
	coreCfg.StoreDir = cfg.storeDir
	coreCfg.Metrics = obs.NewRegistry()
	b := &core.Builder{Fetcher: webgraph.FetcherFunc(fetch), Cfg: coreCfg}
	built, stats, err := b.Build(seeds)
	if err != nil {
		return nil, fmt.Errorf("woc: build: %w", err)
	}
	built.Reconcile("restaurant", core.PreferSupport)
	return newSystem(b, built, stats, Manifest{Cities: cfg.cities, Cuisines: cfg.cuisines}), nil
}

// newSystem finishes a web of concepts — the menus go in — and puts the
// application layers over it. m is the directory's manifest, or only the
// gazetteer for a System from Build.
func newSystem(b *core.Builder, built *core.WebOfConcepts, stats *core.BuildStats, m Manifest) *System {
	b.EnrichMenus(built)
	eng := search.NewEngine(built, search.NewParser(m.Cities, m.Cuisines))
	eng.Metrics = b.Cfg.Metrics
	return &System{
		builder: b, woc: built, engine: eng, trans: session.NewTransitions(eng),
		stats: stats, metrics: b.Cfg.Metrics, manifest: m,
	}
}

// Manifest describes a system directory beside records/ (the concept store)
// and pages/ (the page store): the world the build read — Profile "default"
// (Size restaurants) or "heavytail" (Size pages) from Seed — and the
// gazetteer it extracted with. It is written last: a directory without one
// is a build that did not finish.
type Manifest struct {
	Profile  string   `json:"profile"`
	Seed     int64    `json:"seed"`
	Size     int      `json:"size"`
	Cities   []string `json:"cities"`
	Cuisines []string `json:"cuisines"`
}

const manifestName = "manifest.json"

// World is the world a manifest names: its Manifest with the gazetteer
// filled in, the pipeline configuration of its profile (concept registry,
// domains, matchers), its web — generated by the first call to Web — and
// Build, the profile's pipeline over that web.
type World struct {
	Manifest Manifest
	Config   core.Config
	Web      func() Web
	Build    func(*core.Builder) (*core.WebOfConcepts, *core.BuildStats, error)
}

// Web is a generated web: a *webgen.World or a *webgen.StreamWorld.
type Web interface {
	webgraph.Fetcher
	Cities() []string
}

// World maps m to its world; it is the one place a profile is chosen. The
// default profile crawls Size restaurants' web from its seed pages, the
// heavytail one streams a web of Size pages in. A manifest without a
// gazetteer (a new build's) takes its web's cities, generating it at once.
func (m Manifest) World() (World, error) {
	reg := lrec.NewRegistry()
	w := World{Manifest: m}
	var config func(*lrec.Registry, []string, []string) core.Config
	switch m.Profile {
	case "default":
		webgen.RegisterConcepts(reg)
		config = core.StandardConfig
		web := sync.OnceValue(func() *webgen.World {
			wc := webgen.DefaultConfig()
			wc.Seed, wc.Restaurants = m.Seed, m.Size
			return webgen.Generate(wc)
		})
		w.Web = func() Web { return web() }
		w.Build = func(b *core.Builder) (*core.WebOfConcepts, *core.BuildStats, error) { return b.Build(web().SeedURLs()) }
	case "heavytail":
		webgen.RegisterScaleConcepts(reg)
		config = core.ScaleConfig
		web := sync.OnceValue(func() *webgen.StreamWorld {
			wc := webgen.HeavyTailConfig(m.Size)
			wc.Seed = m.Seed
			return webgen.NewStreamWorld(wc)
		})
		w.Web = func() Web { return web() }
		w.Build = func(b *core.Builder) (*core.WebOfConcepts, *core.BuildStats, error) { return b.BuildStream(web()) }
	default:
		return World{}, fmt.Errorf("unknown world profile %q (want default or heavytail)", m.Profile)
	}
	if m.Cities == nil {
		w.Manifest.Cities, w.Manifest.Cuisines = w.Web().Cities(), webgen.Cuisines()
	}
	w.Config = config(reg, w.Manifest.Cities, w.Manifest.Cuisines)
	return w, nil
}

// Built is what BuildDir built, open until Close, with the number of
// records Reconcile trimmed.
type Built struct {
	*core.WebOfConcepts
	World      World
	Stats      *core.BuildStats
	Reconciled int
}

// BuildDir is `wocbuild -out dir`: the world m names (Manifest.World), its
// page store in dir/pages, the profile's pipeline (World.Build), Reconcile,
// the records copied into a fresh store in dir/records (SaveRecords) and
// the manifest last, atomically, so a directory holding one is a finished
// build that Open reopens. dir must be absent or empty; without it the
// pages go to a temporary directory and nothing is saved. tune, when
// non-nil, adjusts the configuration first (workers, progress). The
// records are saved before enrichment, which Open adds.
func BuildDir(dir string, m Manifest, tune func(*core.Config)) (*Built, error) {
	w, err := m.World()
	if err != nil {
		return nil, err
	}
	cfg := w.Config
	if tune != nil {
		tune(&cfg)
	}
	if dir != "" {
		if names, err := os.ReadDir(dir); err == nil && len(names) > 0 {
			return nil, fmt.Errorf("%s is not empty: a build writes a fresh directory", dir)
		}
		if cfg.PageStore, err = webgraph.OpenDiskStore(filepath.Join(dir, "pages"), webgraph.DiskOptions{}); err != nil {
			return nil, fmt.Errorf("page store: %w", err)
		}
	}
	built, stats, err := w.Build(&core.Builder{Fetcher: w.Web(), Cfg: cfg})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	out := &Built{WebOfConcepts: built, World: w, Stats: stats,
		Reconciled: built.Reconcile("restaurant", core.PreferSupport)}
	if dir == "" {
		return out, nil
	}
	err = built.Pages.Flush()
	if err == nil {
		err = built.SaveRecords(filepath.Join(dir, "records"))
	}
	if err == nil {
		err = framelog.WriteFile(framelog.OS{}, filepath.Join(dir, manifestName), func(f io.Writer) error {
			return json.NewEncoder(f).Encode(w.Manifest)
		})
	}
	if err != nil {
		built.Close()
		return nil, fmt.Errorf("write %s: %w", dir, err)
	}
	return out, nil
}

// Open reopens a system directory: both stores, the page↔record
// associations derived from the records, both inverted indexes refilled —
// what the build served, with nothing extracted, resolved or linked again
// (see core.Builder.Open) — finished like every System, its menus written
// through on the first Open. Refresh fetches from the world the manifest names and writes through to the
// directory. Close the System when done.
func Open(dir string) (*System, error) {
	var m Manifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err != nil {
		return nil, fmt.Errorf("woc: open %s: manifest (a directory without one is an unfinished build): %w", dir, err)
	}
	w, err := m.World()
	var pages *webgraph.Store
	if err == nil {
		pages, err = webgraph.OpenDiskStore(filepath.Join(dir, "pages"), webgraph.DiskOptions{})
	}
	if err != nil {
		return nil, fmt.Errorf("woc: open %s: %w", dir, err)
	}
	cfg := w.Config
	cfg.StoreDir, cfg.PageStore, cfg.Metrics = filepath.Join(dir, "records"), pages, obs.NewRegistry()
	fetch := func(url string) (string, error) { return w.Web().Fetch(url) } // generates the web on first use
	b := &core.Builder{Cfg: cfg, Fetcher: webgraph.FetcherFunc(fetch)}
	opened, stats, err := b.Open()
	if err != nil {
		pages.Close()
		return nil, fmt.Errorf("woc: open %s: %w", dir, err)
	}
	return newSystem(b, opened, stats, m), nil
}

// Manifest returns the manifest of the directory the System was opened
// from; a System from Build has no profile, only its gazetteer.
func (s *System) Manifest() Manifest { return s.manifest }

// Metrics returns the system's observability registry: build-stage latency
// histograms, store counters (lrec puts/gets/WAL appends/compactions), and
// query-layer counters and latencies. Servers can register their own
// instruments (e.g. per-endpoint HTTP histograms) into the same registry so
// one snapshot covers the whole system.
func (s *System) Metrics() *obs.Registry { return s.metrics }

// BuildTrace returns the per-stage timing tree of the construction run
// (crawl/extract/resolve/link/index); render it with Table().
func (s *System) BuildTrace() *obs.TraceReport { return s.stats.Trace }

// Stats summarizes what the build (or, for a System from Open, the reopen)
// did: the builder's own run counts.
type Stats = core.BuildStats

// Stats returns the build statistics.
func (s *System) Stats() Stats { return *s.stats }

// StoreHealth reports the durability state of the concept store and the
// page store: whether the last open had to repair a torn log tail (the
// previous process died mid-append), and whether a write failure has
// latched a store read-only. Serving layers should alarm on Degraded and
// note TornTailRepaired.
type StoreHealth struct {
	// Degraded is empty while both stores accept writes; otherwise it holds
	// the latched write/fsync errors and the store is read-only until the
	// process restarts and recovery reruns.
	Degraded string
	// TornTailRepaired is true when opening a store truncated a torn final
	// log frame (the concept store's WAL, a page segment) left by a crash;
	// TruncatedBytes is how much was cut, summed over both. Only
	// unacknowledged (never-synced) bytes are ever dropped.
	TornTailRepaired bool
	TruncatedBytes   int64
	// SnapshotRecords and LogFrames describe the concept store's recovery
	// replay.
	SnapshotRecords int
	LogFrames       int
}

// StoreHealth returns the current durability state of both stores.
func (s *System) StoreHealth() StoreHealth {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, pages := s.woc.Records.Recovery(), s.woc.Pages.DiskRecovery()
	h := StoreHealth{
		TornTailRepaired: rec.TornTail || pages.TornTail,
		TruncatedBytes:   rec.TruncatedBytes + pages.TruncatedBytes,
		SnapshotRecords:  rec.SnapshotRecords,
		LogFrames:        rec.LogFrames,
	}
	if err := errors.Join(s.woc.Records.Degraded(), s.woc.Pages.Err()); err != nil {
		h.Degraded = err.Error()
	}
	return h
}

// Record is the public view of an lrec: its best attribute values.
type Record struct {
	ID         string
	Concept    string
	Attrs      map[string]string
	Confidence float64
}

func viewRecord(r *lrec.Record) Record {
	out := Record{ID: r.ID, Concept: r.Concept, Attrs: map[string]string{},
		Confidence: r.Confidence()}
	for _, k := range r.Keys() {
		out.Attrs[k] = r.Get(k)
	}
	return out
}

// Record fetches one record by ID.
func (s *System) Record(id string) (Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, err := s.woc.Records.Get(id)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return viewRecord(r), nil
}

// Records lists the records of a concept.
func (s *System) Records(concept string) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := s.woc.Records.ByConcept(concept)
	out := make([]Record, len(rs))
	for i, r := range rs {
		out[i] = viewRecord(r)
	}
	return out
}

// Box is the concept box shown above web results (Figure 1 of the paper).
type Box struct {
	Record   Record
	Name     string
	Address  string
	Phone    string
	Rating   string
	Homepage string
	Reviews  []string
	// RequestedKey/RequestedValue carry the attribute the query asked for
	// ("<name> menu"), when known.
	RequestedKey   string
	RequestedValue string
	Confidence     float64
}

// Doc is one ranked web result.
type Doc struct {
	URL        string
	Score      float64
	IsHomepage bool
	RecordIDs  []string
}

// Page is a full search response.
type Page struct {
	Box        *Box
	Results    []Doc
	Assistance []string
}

// Search answers a web query with concept-aware ranking.
func (s *System) Search(query string, k int) *Page {
	defer s.metrics.TimeWindowed("api.search")()
	s.mu.RLock()
	defer s.mu.RUnlock()
	res := s.engine.Search(query, k)
	page := &Page{Assistance: res.Assistance}
	if res.Box != nil {
		page.Box = &Box{
			Record: viewRecord(res.Box.Record), Name: res.Box.Name,
			Address: res.Box.Address, Phone: res.Box.Phone,
			Rating: res.Box.Rating, Homepage: res.Box.Homepage,
			Reviews: res.Box.Reviews, Confidence: res.Box.Confidence,
			RequestedKey:   res.Box.Requested.Key,
			RequestedValue: res.Box.Requested.Value,
		}
	}
	for _, d := range res.Results {
		page.Results = append(page.Results, Doc{URL: d.URL, Score: d.Score,
			IsHomepage: d.IsHomepage, RecordIDs: d.RecordIDs})
	}
	return page
}

// Hit is one concept-search result.
type Hit struct {
	Record Record
	Score  float64
}

// ConceptSearch retrieves records (not documents) answering the query.
func (s *System) ConceptSearch(query string, k int) []Hit {
	defer s.metrics.TimeWindowed("api.concepts")()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Hit
	for _, h := range s.engine.ConceptSearch(query, nil, k) {
		out = append(out, Hit{Record: viewRecord(h.Record), Score: h.Score})
	}
	return out
}

// Aggregation is the unified everything-about-one-instance page.
type Aggregation struct {
	Title string
	Attrs map[string]string
	// Conflicts maps attributes to values that disagree with the chosen one.
	Conflicts map[string][]string
	Sources   []Source
	Reviews   []string
}

// Source is one contributing source with trust metadata.
type Source struct {
	URL   string
	Kind  string
	Trust float64
}

// Aggregate builds the aggregation page for a record.
func (s *System) Aggregate(id string) (*Aggregation, error) {
	defer s.metrics.TimeWindowed("api.aggregate")()
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, err := s.engine.Aggregate(id)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	out := &Aggregation{Title: p.Title, Attrs: map[string]string{},
		Conflicts: map[string][]string{}, Reviews: p.Reviews}
	for _, av := range p.Attrs {
		out.Attrs[av.Key] = av.Value
		if len(av.Conflicts) > 0 {
			out.Conflicts[av.Key] = av.Conflicts
		}
	}
	for _, src := range p.Sources {
		out.Sources = append(out.Sources, Source{URL: src.URL, Kind: src.Kind, Trust: src.Trust})
	}
	return out, nil
}

// Suggestion is one recommended record.
type Suggestion struct {
	Record Record
	Reason string
	Score  float64
}

// Alternatives recommends substitutes for a record (same city/cuisine,
// not clearly worse).
func (s *System) Alternatives(id string, k int) ([]Suggestion, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	recs, err := s.trans.Rec.Alternatives(id, k)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return viewSuggestions(recs), nil
}

// Augmentations recommends complements for a record (accessories, nearby
// events).
func (s *System) Augmentations(id string, k int) ([]Suggestion, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	recs, err := s.trans.Rec.Augmentations(id, k)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return viewSuggestions(recs), nil
}

func viewSuggestions(recs []session.Recommendation) []Suggestion {
	out := make([]Suggestion, len(recs))
	for i, r := range recs {
		out[i] = Suggestion{Record: viewRecord(r.Record), Reason: r.Reason, Score: r.Score}
	}
	return out
}

// PagesAbout returns the URLs semantically linked to a record.
func (s *System) PagesAbout(id string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.woc.PagesOf(id)
}

// RecordsOn returns the record IDs a page is about.
func (s *System) RecordsOn(url string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.woc.AssocOf(url)
}

// Lineage explains where every value of a record came from (§7.3).
func (s *System) Lineage(id string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lines, err := s.woc.Lineage(id)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return lines, nil
}

// RefreshStats reports an incremental maintenance pass: the builder's own
// per-pass counts, whose running totals are the registry's refresh.*
// counters.
type RefreshStats = core.RefreshStats

// Refresh re-fetches the given URLs, skipping extraction on unmodified pages
// and folding changes into existing records. It holds the maintenance lock:
// in-flight reads drain first, and no read observes a half-applied pass.
func (s *System) Refresh(urls []string) (RefreshStats, error) {
	defer s.metrics.TimeWindowed("api.refresh")()
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.builder.Refresh(s.woc, urls)
	if err != nil {
		return RefreshStats{}, err
	}
	if st.RecordsUpdated+st.RecordsCreated+st.RecordsSuperseded+st.RecordsDeleted > 0 {
		// A rebuilt restaurant record comes back without its menu.
		s.builder.EnrichMenus(s.woc)
	}
	return *st, nil
}

// PageURLs returns every URL currently in the page store, sorted. The
// maintenance loop (internal/maintain) selects refresh cohorts from it;
// URLs that went gone drop out and resurrect here as passes discover them.
func (s *System) PageURLs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.woc.Pages.URLs()
}

// Reconcile trims attribute values violating the concept's multiplicity
// constraints, preferring well-supported values. Returns records changed.
// Like Refresh it holds the maintenance lock exclusively.
func (s *System) Reconcile(concept string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.woc.Reconcile(concept, core.PreferSupport)
}

// Close flushes and closes the concept store and the page store, removing
// the page store's temporary directory for a System from Build.
func (s *System) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.woc.Close()
}

// SearchWithin searches documents restricted to the pages associated with a
// record — Table 1's "search within concept".
func (s *System) SearchWithin(id, query string, k int) []Doc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Doc
	for _, d := range s.engine.SearchWithinConcept(id, query, k) {
		out = append(out, Doc{URL: d.URL, Score: d.Score, RecordIDs: d.RecordIDs})
	}
	return out
}

// Related returns pages similar to the given page (Table 1's "related
// pages"), by text similarity plus shared concept references.
func (s *System) Related(url string, k int) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for _, l := range s.trans.ArticleToArticle(url, k) {
		out = append(out, l.Target)
	}
	return out
}

// Categories organizes a concept's records into data-driven sub-concepts
// (§2.3's data-driven taxonomy): records cluster by the text of the given
// attributes, and the result maps each discovered sub-concept label to its
// member record IDs.
func (s *System) Categories(concept string, k int, attrs ...string) map[string][]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tax := s.woc.DataTaxonomy(concept, concept, k, attrs...)
	out := make(map[string][]string)
	for _, node := range tax.Nodes() {
		if node == concept {
			continue
		}
		if members := tax.InstancesOf(node); len(members) > 0 {
			out[node] = members
		}
	}
	return out
}
