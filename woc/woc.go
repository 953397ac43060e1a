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
// A directory written by `wocbuild -out DIR` is a system too: Open reopens
// it without building anything again.
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
	maxPages int
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

// WithMaxPages bounds the crawl.
func WithMaxPages(n int) Option {
	return func(c *buildConfig) { c.maxPages = n }
}

// WithStoreDir persists the concept store durably in dir (WAL + snapshots).
func WithStoreDir(dir string) Option {
	return func(c *buildConfig) { c.storeDir = dir }
}

// System is a built web of concepts with its application layers. Its pages
// live in a page store on disk — in a temporary directory for a System from
// Build, which Close removes, so every System must be closed.
//
// All methods are safe for concurrent use: read methods (Search, Aggregate,
// …) hold a shared lock while maintenance (Refresh, Reconcile) holds it
// exclusively, so a reader never observes a half-applied refresh — every
// response is computed against a single data generation (see Epoch).
type System struct {
	builder *core.Builder
	woc     *core.WebOfConcepts
	engine  *search.Engine
	trans   *session.Transitions
	stats   *core.BuildStats
	metrics *obs.Registry

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
	metrics := obs.NewRegistry()
	coreCfg := core.StandardConfig(reg, cfg.cities, cfg.cuisines)
	coreCfg.MaxPages = cfg.maxPages
	coreCfg.StoreDir = cfg.storeDir
	coreCfg.Metrics = metrics
	b := &core.Builder{Fetcher: webgraph.FetcherFunc(fetch), Cfg: coreCfg}
	built, stats, err := b.Build(seeds)
	if err != nil {
		return nil, fmt.Errorf("woc: build: %w", err)
	}
	built.Reconcile("restaurant", core.PreferSupport)
	b.EnrichMenus(built)
	return newSystem(b, built, stats, cfg.cities, cfg.cuisines), nil
}

// newSystem puts the application layers over a web of concepts.
func newSystem(b *core.Builder, built *core.WebOfConcepts, stats *core.BuildStats, cities, cuisines []string) *System {
	eng := search.NewEngine(built, search.NewParser(cities, cuisines))
	eng.Metrics = b.Cfg.Metrics
	return &System{
		builder: b, woc: built, engine: eng,
		trans: session.NewTransitions(eng), stats: stats, metrics: b.Cfg.Metrics,
	}
}

// Manifest describes a directory `wocbuild -out` wrote beside records/ (the
// concept store) and pages/ (the page store): the world the build read —
// Profile "default" (Size restaurants) or "heavytail" (Size pages) — and the
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

// WriteManifest writes m into dir, atomically: a reader finds the whole
// manifest or none.
func WriteManifest(dir string, m Manifest) error {
	return framelog.WriteFile(framelog.OS{}, filepath.Join(dir, manifestName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(m)
	})
}

// Open reopens the system `wocbuild -out dir` wrote: both stores, the
// page↔record associations derived from the records, both inverted indexes
// refilled — what the build served, with nothing extracted, resolved or
// linked again (see core.Builder.Open). A "default" directory's restaurant
// records get the menus Build adds (EnrichMenus) on the first Open, which
// writes them through. The shard count is the directory's. Refresh fetches from the world the manifest names, generated
// on first fetch, and writes through to the directory. Close the System when
// done.
func Open(dir string) (*System, error) {
	var m Manifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err != nil {
		return nil, fmt.Errorf("woc: open %s: manifest (a directory without one is an unfinished build): %w", dir, err)
	}
	reg := lrec.NewRegistry()
	var cfg core.Config
	var world func() webgraph.Fetcher
	switch m.Profile {
	case "default":
		webgen.RegisterConcepts(reg)
		cfg = core.StandardConfig(reg, m.Cities, m.Cuisines)
		world = func() webgraph.Fetcher {
			wc := webgen.DefaultConfig()
			wc.Seed, wc.Restaurants = m.Seed, m.Size
			return webgen.Generate(wc)
		}
	case "heavytail":
		webgen.RegisterScaleConcepts(reg)
		cfg = core.ScaleConfig(reg, m.Cities, m.Cuisines)
		world = func() webgraph.Fetcher {
			wc := webgen.HeavyTailConfig(m.Size)
			wc.Seed = m.Seed
			return webgen.NewStreamWorld(wc)
		}
	default:
		return nil, fmt.Errorf("woc: open %s: unknown world profile %q", dir, m.Profile)
	}
	pages, err := webgraph.OpenDiskStore(filepath.Join(dir, "pages"), webgraph.DiskOptions{})
	if err != nil {
		return nil, fmt.Errorf("woc: open %s: %w", dir, err)
	}
	cfg.StoreDir, cfg.PageStore, cfg.Metrics = filepath.Join(dir, "records"), pages, obs.NewRegistry()
	fetcher := sync.OnceValue(world)
	b := &core.Builder{Cfg: cfg, Fetcher: webgraph.FetcherFunc(func(url string) (string, error) {
		return fetcher().Fetch(url)
	})}
	opened, stats, err := b.Open()
	if err != nil {
		pages.Close()
		return nil, fmt.Errorf("woc: open %s: %w", dir, err)
	}
	if m.Profile == "default" {
		b.EnrichMenus(opened) // as Build does; a record holding a menu is skipped
	}
	return newSystem(b, opened, stats, m.Cities, m.Cuisines), nil
}

// Metrics returns the system's observability registry: build-stage latency
// histograms, store counters (lrec puts/gets/WAL appends/compactions), and
// query-layer counters and latencies. Servers can register their own
// instruments (e.g. per-endpoint HTTP histograms) into the same registry so
// one snapshot covers the whole system.
func (s *System) Metrics() *obs.Registry { return s.metrics }

// BuildTrace returns the per-stage timing tree of the construction run
// (crawl/extract/resolve/link/index); render it with Table().
func (s *System) BuildTrace() *obs.TraceReport { return s.stats.Trace }

// Stats summarizes what the build did.
type Stats struct {
	PagesFetched  int
	Candidates    int
	RecordsStored int
	PagesLinked   int
}

// Stats returns the build statistics.
func (s *System) Stats() Stats {
	return Stats{
		PagesFetched:  s.stats.PagesFetched,
		Candidates:    s.stats.Candidates,
		RecordsStored: s.stats.RecordsStored,
		PagesLinked:   s.stats.PagesLinked,
	}
}

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
	// SnapshotRecords and LogFrames describe the recovery replay; for a
	// sharded store they aggregate across shards.
	SnapshotRecords int
	LogFrames       int
	// Shards holds the per-partition breakdown when the store has more than
	// one shard: a write failure latches only its shard, so the store can be
	// partially degraded — some partitions read-only, the rest serving
	// writes. Empty for single-shard stores.
	Shards []ShardHealth
}

// ShardHealth is one store partition's durability state.
type ShardHealth struct {
	Shard            int
	Records          int
	Degraded         string // empty while the shard accepts writes
	TornTailRepaired bool
	TruncatedBytes   int64
	WALBytes         int64
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
	if s.woc.Records.NumShards() > 1 {
		for _, st := range s.woc.Records.ShardStates() {
			h.Shards = append(h.Shards, ShardHealth{
				Shard:            st.Shard,
				Records:          st.Records,
				Degraded:         st.Degraded,
				TornTailRepaired: st.Recovery.TornTail,
				TruncatedBytes:   st.Recovery.TruncatedBytes,
				WALBytes:         st.WALBytes,
			})
		}
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

// RefreshStats reports an incremental maintenance pass.
type RefreshStats struct {
	PagesChecked   int
	PagesUnchanged int
	PagesChanged   int
	// PagesGone counts URLs whose fetch failed: the page left the corpus
	// and its lineage was retired (it may resurrect on a later pass).
	PagesGone      int
	RecordsUpdated int
	RecordsCreated int
	// RecordsSuperseded counts records retired and rebuilt from their
	// re-extracted hosts; RecordsDeleted counts records the new corpus no
	// longer supports.
	RecordsSuperseded int
	RecordsDeleted    int
	// PagesRelinked counts free-text pages whose concept link changed in
	// the pass's relink stage.
	PagesRelinked int
	// UpsertCompared and UpsertPruned count the (rebuilt, stored) record
	// pairs entity matching scored exactly and the pairs its upper bound
	// skipped while looking for merge targets.
	UpsertCompared int
	UpsertPruned   int
	// PagesAnalyzed and PagesReplayed split the pages of the re-extracted
	// hosts into those the pass read and analysed and those it answered
	// from the extraction memo. HostsReinduced counts re-extracted hosts
	// whose trusted template signatures changed, so that the whole site
	// went through the propagate and detail passes again: wrapper drift.
	PagesAnalyzed  int
	PagesReplayed  int
	HostsReinduced int
	// Epoch is the data generation after the pass; it advanced only if the
	// pass changed visible state.
	Epoch uint64
}

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
	return RefreshStats{
		PagesChecked: st.PagesChecked, PagesUnchanged: st.PagesUnchanged,
		PagesChanged: st.PagesChanged, PagesGone: st.PagesGone,
		RecordsUpdated: st.RecordsUpdated, RecordsCreated: st.RecordsCreated,
		RecordsSuperseded: st.RecordsSuperseded, RecordsDeleted: st.RecordsDeleted,
		UpsertCompared: st.UpsertCompared, UpsertPruned: st.UpsertPruned,
		PagesAnalyzed: st.PagesAnalyzed, PagesReplayed: st.PagesReplayed,
		HostsReinduced: st.HostsReinduced,
		PagesRelinked:  st.PagesRelinked, Epoch: st.Epoch,
	}, nil
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
