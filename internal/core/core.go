// Package core orchestrates construction and maintenance of a web of
// concepts (§4, §7.3): it crawls pages, runs domain-centric extraction
// (list + detail with site-level template propagation), resolves co-referent
// candidates with collective entity matching, links free-text pages
// (reviews, articles) to records with the generative text matcher, builds
// the document/record inverted indexes, and maintains the whole thing
// incrementally as pages change.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"conceptweb/internal/extract"
	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/match"
	"conceptweb/internal/obs"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgraph"
)

// Config assembles the domain knowledge for a build.
type Config struct {
	Registry *lrec.Registry
	// Domains drive list/detail extraction, one per concept of interest.
	Domains []extract.Domain
	// Matchers provide entity matching per concept name; concepts without a
	// matcher are deduplicated by synthesized ID only.
	Matchers map[string]*match.Matcher
	// LinkConcepts are the concepts whose records participate in semantic
	// linking of free-text pages (reviews, articles).
	LinkConcepts []string
	// Workers is the size of the worker pool the extract, link, and index
	// stages (and Refresh's refetch/extract) fan out over; 0 or negative
	// means runtime.GOMAXPROCS(0). Output is deterministic at any value:
	// results fan back in by task index, so the same seed and corpus yield
	// identical stores and indexes whether Workers is 1 or 64.
	Workers int
	// Gate, when non-nil, admits a page to a concept's detail extraction;
	// build one with ClassifierGate to route only relevant pages to each
	// domain's extractor (§4.2 relational classification). The extract stage
	// calls Gate from several workers at once, so implementations must be
	// safe for concurrent use (ClassifierGate is: it only reads maps frozen
	// at construction).
	Gate func(concept string, p *webgraph.Page) bool
	// StoreDir, when set, backs the concept store durably (write-ahead log
	// plus snapshots) in that directory instead of memory.
	StoreDir string
	// PageStore, when non-nil, is the page store crawled or ingested pages
	// go to (webgraph.OpenDiskStore's result). When nil, the build opens one
	// in a temporary directory of its own, which WebOfConcepts.Close
	// removes.
	PageStore *webgraph.Store
	// Progress, when non-nil, receives pipeline progress callbacks: a stage
	// name plus done/total counts (total is 0 when unknown). Callbacks come
	// from multiple goroutines and must be cheap and concurrency-safe.
	Progress func(stage string, done, total int)
	// Metrics, when non-nil, receives pipeline counters, store counters, and
	// per-stage latency histograms. Stage traces in BuildStats/RefreshStats
	// are produced regardless.
	Metrics *obs.Registry
}

// WebOfConcepts is the built artifact: the unified concept store plus the
// document-side structures applications consume.
type WebOfConcepts struct {
	Registry *lrec.Registry
	Records  *lrec.Store
	Pages    *webgraph.Store
	// DocIndex indexes page text; RecIndex indexes flattened lrecs — the
	// paper's stipulation that concept retrieval ride on inverted indexes.
	DocIndex *index.Index
	RecIndex *index.Index
	// Assoc maps page URL -> record IDs the page is about; RevAssoc is the
	// inverse. Both underlie the §5.1 ranking features and §5.4 pivots.
	Assoc    map[string][]string
	RevAssoc map[string][]string
	// goneAssoc remembers, for pages removed by a maintenance pass, which
	// records they fed — the lineage ledger the supersede stage consults
	// when a gone page resurrects with different content. Entries are
	// cleared on resurrection; pages that never return keep theirs.
	goneAssoc map[string][]string
	// memo is the extraction memo (see extractMemo): what the last
	// extraction of each host found, page by page, so that a maintenance
	// pass re-analyses only the pages that changed. Build keeps the one its
	// extract stage fills; after BuildStream it is nil until the first
	// Refresh creates it.
	memo *extractMemo
	// links is the link-feature memo (see linkMemo): the relink stage's
	// per-page scoring inputs, so that a global relink re-parses only the
	// pages that changed. It is kept exactly when memo is: Build's link
	// stage fills it, and after BuildStream it is nil until the first
	// Refresh creates it beside memo.
	links linkMemo

	// tempPages is the directory of a page store newWoc opened for itself;
	// Close removes it. Empty when the page store came from the config.
	tempPages string

	// epoch is the maintenance generation counter: 1 after Build, bumped by
	// every maintenance pass that changes visible state (Refresh with
	// changed or gone pages, Reconcile that trimmed records). The value
	// serving layers actually key caches by is Epoch(), which folds this
	// counter together with the mutation epochs of the store and both
	// indexes.
	epoch atomic.Uint64
}

// Epoch returns the current data generation, composed from the maintenance
// counter plus the mutation epochs of the record store and both inverted
// indexes. Every one of them is monotonic, so the composed value strictly
// increases on any visible mutation anywhere — the serving contract — and an
// unchanged maintenance pass reproduces the previous value, keeping
// epoch-keyed result caches warm. The same build yields the same epoch at
// any worker count.
func (woc *WebOfConcepts) Epoch() uint64 {
	e := woc.epoch.Load()
	if woc.Records != nil {
		e += woc.Records.Epoch()
	}
	if woc.DocIndex != nil {
		e += woc.DocIndex.Epoch()
	}
	if woc.RecIndex != nil {
		e += woc.RecIndex.Epoch()
	}
	return e
}

// BumpEpoch advances the maintenance generation counter and returns the new
// composed epoch. Callers that batch several mutations (refresh +
// reconcile) bump once per batch.
func (woc *WebOfConcepts) BumpEpoch() uint64 {
	woc.epoch.Add(1)
	return woc.Epoch()
}

// Close flushes and closes the concept store and the page store, and removes
// the page store's directory when the build opened it for itself
// (os.RemoveAll of an empty tempPages does nothing).
func (woc *WebOfConcepts) Close() error {
	return errors.Join(woc.Records.Close(), woc.Pages.Close(), os.RemoveAll(woc.tempPages))
}

// AssocOf returns the record IDs associated with a page URL.
func (woc *WebOfConcepts) AssocOf(url string) []string { return woc.Assoc[url] }

// PagesOf returns the page URLs associated with a record ID.
func (woc *WebOfConcepts) PagesOf(id string) []string { return woc.RevAssoc[id] }

// BuildStats reports what a build did.
type BuildStats struct {
	PagesFetched  int
	FetchFailures int
	// PageParses counts the HTML parses the build paid for: its reads of the
	// page store, which parses on every Get (the crawl and the ingest store
	// bytes unparsed). A build parses each page once in the extract stage
	// and the link stage's candidates once more.
	PageParses     int
	Candidates     int
	RecordsStored  int
	ClustersMerged int // candidate records absorbed into clusters
	PagesLinked    int // free-text pages linked to records
	ReviewRecords  int
	// Workers annotates the trace with the worker-pool size the parallel
	// stages ran at, so recorded stage tables are comparable across runs.
	Workers int
	// Epoch is the data generation the build produced; maintenance passes
	// (Refresh, Reconcile) advance it whenever they change visible state.
	Epoch uint64
	// Trace is the per-stage timing tree of the build
	// (crawl/extract/resolve/link/index); render it with Trace.Table().
	Trace *obs.TraceReport
}

// Builder runs builds against a fetcher.
type Builder struct {
	Fetcher webgraph.Fetcher
	Cfg     Config

	// assocSeen is associate's reused per-record dedupe set; see associate.
	assocSeen map[string]bool
	// extractWindow, when positive, replaces extractWindowPages: the tests'
	// way to force one host per window or the whole corpus in one.
	extractWindow int
}

// Build crawls from seeds and constructs the web of concepts. Each pipeline
// stage (crawl, extract, resolve, link, index) is timed into a trace tree
// returned on BuildStats.Trace and, when Cfg.Metrics is set, into per-stage
// latency histograms named "build.<stage>". The crawl stays a stage of its
// own rather than a PageSource: its frontier grows from each fetched page's
// outlinks, which the crawler scans for without parsing, storing the bytes
// as an ingest would. Build keeps the extraction memo its extract stage
// fills, and the link-feature memo its link stage fills, for later
// maintenance passes.
func (b *Builder) Build(seeds []string) (*WebOfConcepts, *BuildStats, error) {
	return b.build(newExtractMemo(), "crawl", func(woc *WebOfConcepts, stats *BuildStats) error {
		crawler := &webgraph.Crawler{Fetcher: b.Fetcher, Store: woc.Pages}
		stats.PagesFetched, stats.FetchFailures = crawler.Crawl(seeds)
		// A page write that failed latched the store: surface it, as the
		// ingest does, rather than build over the pages that landed.
		return woc.Pages.Flush()
	})
}

// build is the one construction pipeline: first, the stage named first that
// fills the page store (Build's crawl, BuildStream's ingest), then the shared
// body — extract → resolve → link → index — over whatever the store holds.
// memo becomes the web of concepts' extraction memo, and a link-feature memo
// is kept beside it; nil extracts memo-less and keeps neither.
func (b *Builder) build(memo *extractMemo, first string, fill func(*WebOfConcepts, *BuildStats) error) (*WebOfConcepts, *BuildStats, error) {
	woc, err := b.newWoc()
	if err != nil {
		return nil, nil, err
	}
	woc.memo = memo
	if memo != nil {
		woc.links = linkMemo{}
	}
	stats := &BuildStats{Workers: b.workers()}
	ctx, root := pipelineCtx("build")
	parsed := woc.Pages.Stats().Parses

	var fillErr error
	b.stage(ctx, first, func(context.Context) { fillErr = fill(woc, stats) })
	if fillErr != nil {
		woc.Close()
		return nil, nil, fmt.Errorf("core: %s: %w", first, fillErr)
	}

	cg := newConceptGroups(nil)
	feed := feedDocIndex(woc.DocIndex, nil)
	b.stage(ctx, "extract", func(context.Context) {
		b.extractHosts(woc, nil, cg, feed)
		stats.Candidates = cg.total
	})
	b.stage(ctx, "resolve", func(context.Context) {
		b.progress("resolve", 0, stats.Candidates)
		b.resolveAndStore(woc, cg, stats)
		b.progress("resolve", stats.Candidates, stats.Candidates)
	})
	cg = nil
	b.stage(ctx, "link", func(context.Context) {
		b.progress("link", 0, 0)
		stats.PagesLinked, _, stats.ReviewRecords = b.relinkPass(woc, nil, true)
	})
	b.stage(ctx, "index", func(sctx context.Context) {
		b.finishIndexes(sctx, woc, feed)
	})

	root.End()
	stats.Trace = root.Report()
	stats.Epoch = woc.BumpEpoch()
	stats.PageParses += int(woc.Pages.Stats().Parses - parsed)
	return woc, stats, nil
}

// newWoc assembles the empty artifact a build fills: the record store
// (memory or durable per StoreDir), the page store (Config.PageStore, or one
// of its own in a temporary directory), and the two indexes.
func (b *Builder) newWoc() (*WebOfConcepts, error) {
	if b.Cfg.Registry == nil {
		return nil, fmt.Errorf("core: nil registry")
	}
	opts := []lrec.StoreOption{lrec.WithRegistry(b.Cfg.Registry), lrec.WithMetrics(b.Cfg.Metrics)}
	var records *lrec.Store
	var err error
	if b.Cfg.StoreDir == "" {
		records = lrec.NewMemStore(opts...)
	} else if records, err = lrec.Open(b.Cfg.StoreDir, opts...); err != nil {
		return nil, fmt.Errorf("core: open store: %w", err)
	}
	woc := &WebOfConcepts{
		Registry: b.Cfg.Registry,
		Records:  records,
		Pages:    b.Cfg.PageStore,
		DocIndex: index.New(),
		RecIndex: index.New(),
		Assoc:    make(map[string][]string),
		RevAssoc: make(map[string][]string),
	}
	if woc.Pages == nil {
		if woc.tempPages, err = os.MkdirTemp("", "woc-pages-"); err == nil {
			woc.Pages, err = webgraph.OpenDiskStore(woc.tempPages, webgraph.DiskOptions{})
		}
		if err != nil {
			records.Close()
			os.RemoveAll(woc.tempPages)
			return nil, fmt.Errorf("core: open page store: %w", err)
		}
	}
	return woc, nil
}

// progress reports pipeline progress to Config.Progress when set.
func (b *Builder) progress(stage string, done, total int) {
	if b.Cfg.Progress != nil {
		b.Cfg.Progress(stage, done, total)
	}
}

// stage runs fn inside a child span of ctx named name, mirroring its
// duration into the "<pipeline>.<name>" latency histogram (pipeline being
// the enclosing root span: build or refresh) when metrics are on.
func (b *Builder) stage(ctx context.Context, name string, fn func(context.Context)) {
	sctx, span := obs.Start(ctx, name)
	fn(sctx)
	d := span.End()
	prefix := "build"
	if r, ok := ctx.Value(rootNameKey{}).(string); ok {
		prefix = r
	}
	b.Cfg.Metrics.Histogram(prefix + "." + name).ObserveDuration(d)
}

type rootNameKey struct{}

// pipelineCtx opens the root span for a pipeline run and tags the context
// with its name so stage() can prefix metrics correctly.
func pipelineCtx(name string) (context.Context, *obs.Span) {
	ctx := context.WithValue(context.Background(), rootNameKey{}, name)
	return obs.Start(ctx, name)
}

// extractStats says what one extract stage read and what it replayed.
type extractStats struct {
	// pagesAnalyzed counts pages read and analysed; pagesReplayed counts
	// pages of the same hosts answered from the memo alone.
	pagesAnalyzed, pagesReplayed int
	// hostsReinduced counts hosts where a changed trusted-signature set sent
	// some domain's propagate and detail passes back over the whole site.
	hostsReinduced int
	// taskTime is the summed wall time of the stage's page tasks; over the
	// stage's own wall time it is how many workers the stage kept busy.
	taskTime time.Duration
}

// extractWindowPages is the size at which the extract stage closes a window
// of hosts: it walks the sorted hosts and cuts after the first host that
// brings the window to this many pages. A constant, not a setting: the
// stage's resident analyses are at most one window, a window is at most this
// many pages short of a host boundary plus that host, and so the largest
// host alone remains the memory bound whatever the value; it only has to be
// large enough that the two barriers a window costs are noise beside its
// page tasks, and 256 pages are some tens of milliseconds of work.
const extractWindowPages = 256

// extractHosts runs the extract stage over the given hosts (nil = every
// host) through the web of concepts' extraction memo, filling it for hosts
// it has not seen: a page whose stored hash the memo holds is neither read
// nor analysed, its candidates are replayed. Without a memo (woc.memo nil)
// it extracts memo-less and keeps nothing.
func (b *Builder) extractHosts(woc *WebOfConcepts, only map[string]bool, cg *conceptGroups, feed *docFeed) extractStats {
	hosts := woc.Pages.Hosts()
	if only != nil {
		hosts = slices.DeleteFunc(hosts, func(h string) bool { return !only[h] })
	}
	if woc.memo != nil {
		woc.memo.tick++
		defer woc.memo.evict()
	}
	return b.extractPages(woc.Pages, hosts, woc.memo, cg, feed)
}

// extractPages is the extract stage of Build, BuildStream and Refresh:
// domain-centric extraction over the sorted hosts — per domain, list
// extraction with site-level template propagation, plus detail extraction on
// pages where no list of the same concept was found (a page that lists five
// restaurants is not a detail page about one).
//
// The unit of work is a page, not a site. Site sizes are heavy-tailed (five
// aggregator hosts hold 45 % of an 8k-page corpus's pages and most of its
// extract time), so a site per task leaves the pool idle behind whichever
// worker drew the giant; but a site's extraction is two per-page passes
// around one site-wide fact, the trusted signature set (extract.SiteRun),
// so the pages can be dealt out singly. Hosts are taken in windows (see
// extractWindowPages). Within a window every page is one task per pass: the
// list pass of every configured domain over the page, a barrier at which
// each (host, domain) unions its trusted set, then the propagate and detail
// passes of every domain over the page. One PageAnalysis serves all domains
// and both passes of its page and is touched by one task at a time. Tasks
// read shared immutable inputs (the Domain values; extractor instances are
// per (host, domain)) and write their own page's slots.
//
// After the second pass the window folds into cg serially, in the order a
// whole-corpus serial extraction would produce: hosts sorted, then the
// config's domain order, then list, propagated and detail candidates each in
// site-page order. Candidate order, and with it every downstream seq
// assignment and the pre-merge value dedupe, is therefore identical at any
// worker count and window size, and between a host-restricted delta
// extraction and a fresh build. Folding per window also means candidates
// that pre-merge into an already-folded record die a window later at most,
// instead of riding a corpus-sized slice to the resolve stage.
//
// The task that finishes a page also prepares its document for the document
// index while the DOM it just walked is in hand (feed, when non-nil; see
// docFeed): the index is a by-product of the one read and one parse a page
// gets, not a second pass over the corpus. The window's documents go to the
// feed at the fold, in task order — sorted host, then site-page order — which
// is what fixes the index's doc numbering at any worker count and window
// size.
//
// memo, when non-nil, is read and filled per (host, domain); nil extracts
// memo-less (the streamed build). A window's analyses die with it.
func (b *Builder) extractPages(pages *webgraph.Store, hosts []string, memo *extractMemo, cg *conceptGroups, feed *docFeed) extractStats {
	type pageTask struct{ site, page int32 }
	var st extractStats
	window := extractWindowPages
	if b.extractWindow > 0 {
		window = b.extractWindow
	}
	w := b.workers()
	domains := b.Cfg.Domains
	noMemo := make([]*extract.SiteMemo, len(domains)) // every domain's memo when memo is nil
	for lo := 0; lo < len(hosts); {
		var sites []*hostSite
		var runs [][]*extract.SiteRun // by site, then by domain
		var tasks []pageTask
		hi := lo
		for ; hi < len(hosts) && len(tasks) < window; hi++ {
			hs := newHostSite(pages, hosts[hi])
			for p := range hs.URLs {
				tasks = append(tasks, pageTask{int32(len(sites)), int32(p)})
			}
			held := noMemo
			if memo != nil {
				held = memo.host(hosts[hi], len(domains)).sites
			}
			rs := make([]*extract.SiteRun, len(domains))
			for di, d := range domains {
				rs[di] = b.beginSite(held[di], hs.Site, d)
			}
			sites, runs = append(sites, hs), append(runs, rs)
		}

		spent := make([]time.Duration, len(tasks))
		parallelEach(len(tasks), w, func(i int) {
			start := time.Now()
			for _, r := range runs[tasks[i].site] {
				r.ListPage(int(tasks[i].page))
			}
			spent[i] = time.Since(start)
		})
		for _, rs := range runs {
			for _, r := range rs {
				r.Induce()
			}
		}
		var docs []index.PreparedDoc // by task; zero where the feed wants none
		if feed != nil {
			docs = make([]index.PreparedDoc, len(tasks))
		}
		parallelEach(len(tasks), w, func(i int) {
			start := time.Now()
			for _, r := range runs[tasks[i].site] {
				r.FinishPage(int(tasks[i].page))
			}
			if feed != nil {
				docs[i] = feed.prepare(sites[tasks[i].site], int(tasks[i].page))
			}
			spent[i] += time.Since(start)
		})
		for _, d := range spent {
			st.taskTime += d
		}

		if feed != nil {
			feed.queue <- docs // merges beside the fold below and the next window
		}
		for si, hs := range sites {
			hostReinduced := false
			for _, r := range runs[si] {
				cands, reinduced := r.Commit()
				cg.addAll(cands)
				hostReinduced = hostReinduced || reinduced
			}
			if hostReinduced {
				st.hostsReinduced++
			}
			for _, pa := range hs.pas {
				if pa == nil {
					st.pagesReplayed++
				} else {
					st.pagesAnalyzed++
				}
			}
		}
		lo = hi
		b.progress("extract", hi, len(hosts))
	}
	return st
}

// beginSite opens one domain's extraction of one site: list extraction with
// site propagation plus detail extraction, page by page through memo (nil
// keeps none).
func (b *Builder) beginSite(memo *extract.SiteMemo, site extract.Site, d extract.Domain) *extract.SiteRun {
	prop := &extract.SitePropagator{Inner: &extract.ListExtractor{Domain: d}}
	det := &extract.DetailExtractor{Domain: d}
	return memo.Begin(prop, site, func(pa *extract.PageAnalysis) []*extract.Candidate {
		p := pa.Page
		if b.Cfg.Gate != nil && !b.Cfg.Gate(d.Concept, p) {
			return nil // classification routed this page elsewhere
		}
		found := det.ExtractAnalyzed(pa)
		for _, c := range found {
			if p.Path == "/" {
				// A detail page at a site root is the instance's own
				// homepage.
				c.Add("homepage", p.URL, 0.9)
			}
			if hp := officialSiteLink(p); hp != "" {
				c.Add("homepage", hp, 0.8)
			}
		}
		return found
	})
}

// officialSiteLink finds an outlink labeled as the official site.
func officialSiteLink(p *webgraph.Page) string {
	for _, a := range p.Doc.FindAll("a") {
		text := a.Text()
		txt := textproc.Normalize(text)
		if strings.Contains(txt, "official site") || strings.Contains(txt, "official website") {
			if href, ok := a.AttrVal("href"); ok {
				return canonicalURL(href)
			}
		}
		// Table-style sites label the row and link the raw URL.
		if href, ok := a.AttrVal("href"); ok && textproc.NormalizeKey(text) == textproc.NormalizeKey(href) && href != "" {
			return canonicalURL(href)
		}
	}
	return ""
}

// pageMainText returns the page text with nav/footer/breadcrumb boilerplate
// removed, so semantic linking scores content rather than chrome. The walk
// itself lives on PageAnalysis so build-time callers holding an analysis
// share the cached result.
func pageMainText(p *webgraph.Page) string {
	return extract.Analyze(p).MainText()
}

func canonicalURL(u string) string {
	u = strings.TrimPrefix(u, "http://")
	u = strings.TrimPrefix(u, "https://")
	return u
}

// resolveAndStore resolves co-references within the collector's pre-merged
// per-concept groups and stores one merged record per resolved entity. The
// extract stage already grouped candidates as they streamed in; finish only
// stamps final provenance seqs and hands over sorted groups, one concept
// resident in resolve at a time.
func (b *Builder) resolveAndStore(woc *WebOfConcepts, cg *conceptGroups, stats *BuildStats) {
	for _, concept := range cg.concepts() {
		toStore, merged := b.resolveConcept(woc, cg, concept)
		stats.ClustersMerged += merged
		// Stores go through PutBatch: one lock hold, versions assigned in
		// cluster order, exactly as a serial Put loop. Association
		// bookkeeping follows in the same order.
		for i, err := range woc.Records.PutBatch(toStore) {
			if err == nil {
				stats.RecordsStored++
				b.associate(woc, toStore[i])
			}
		}
	}
}

// resolveConcept takes one concept's pre-merged candidates from cg and
// resolves them into one record per entity: the representatives of the
// concept's collective-matching clusters, or the candidates themselves when
// the concept has no matcher. merged counts the candidates absorbed into
// clusters.
func (b *Builder) resolveConcept(woc *WebOfConcepts, cg *conceptGroups, concept string) (reps []*lrec.Record, merged int) {
	recs := cg.take(concept, woc.Records)
	m := b.Cfg.Matchers[concept]
	if m == nil {
		return recs, 0
	}
	clusters := match.Resolve(recs, m, match.DefaultCollectiveOptions())
	reps = make([]*lrec.Record, 0, len(clusters))
	for _, cl := range clusters {
		merged += len(cl.Members) - 1
		reps = append(reps, cl.Rep)
	}
	return reps, merged
}

// associate records page<->record associations from provenance. It reuses
// one per-builder seen set across calls (associate runs serially, from the
// resolve apply loop) instead of allocating a map per record — the
// allocation showed up on the 100k-page resolve-stage profile.
func (b *Builder) associate(woc *WebOfConcepts, r *lrec.Record) {
	if b.assocSeen == nil {
		b.assocSeen = make(map[string]bool)
	}
	seen := b.assocSeen
	clear(seen)
	for _, k := range r.Keys() {
		for _, v := range r.All(k) {
			u := v.Prov.SourceURL
			if u == "" || seen[u] {
				continue
			}
			seen[u] = true
			woc.Assoc[u] = appendUnique(woc.Assoc[u], r.ID)
			woc.RevAssoc[r.ID] = appendUnique(woc.RevAssoc[r.ID], u)
		}
	}
	// The record's homepage (and its subpages, transitively crawled) is also
	// associated.
	if hp := r.Get("homepage"); hp != "" {
		woc.Assoc[hp] = appendUnique(woc.Assoc[hp], r.ID)
		woc.RevAssoc[r.ID] = appendUnique(woc.RevAssoc[r.ID], hp)
	}
}

// appendUnique inserts v into the sorted list if absent, keeping it sorted.
// Insertion at the right position replaces the old append-then-sort, which
// re-sorted the whole slice on every call (O(n² log n) across a build).
func appendUnique(list []string, v string) []string {
	i := sort.SearchStrings(list, v)
	if i < len(list) && list[i] == v {
		return list
	}
	list = append(list, "")
	copy(list[i+1:], list[i:])
	list[i] = v
	return list
}

// truncateBytes cuts s to at most max bytes without splitting a multi-byte
// UTF-8 rune: the cut backs up to the nearest rune boundary.
func truncateBytes(s string, max int) string {
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut]
}

// docFeedWindows bounds the document feed's queue, in extract windows.
const docFeedWindows = 2

// docFeed fills the document index behind the pipeline. The extract stage's
// page tasks prepare documents (prepare) and its fold queues them a window at
// a time; one merger goroutine takes the windows in order and merges them into
// the index with a single writer, beside the remaining extract windows, the
// serial resolve stage and link. Nothing a build stage reads depends on the
// document index, so the only synchronization is the join before the build
// returns. The queue holds at most docFeedWindows windows: a fold that finds
// it full waits, so the prepared documents resident are bounded by the
// windows, not the corpus.
type docFeed struct {
	// only, when non-nil, restricts indexing to these URLs: a maintenance
	// pass re-extracts whole hosts but re-indexes only the pages that changed.
	only  map[string]bool
	queue chan []index.PreparedDoc
	done  chan struct{}
	busy  time.Duration // the merger's time in the index; read after join
}

// feedDocIndex starts the merger goroutine of ix. The caller queues windows
// through extractPages and must join.
func feedDocIndex(ix *index.Index, only map[string]bool) *docFeed {
	f := &docFeed{
		only:  only,
		queue: make(chan []index.PreparedDoc, docFeedWindows),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(f.done)
		for docs := range f.queue {
			start := time.Now()
			for _, d := range docs {
				if d.ID != "" { // the zero document: no page here
					ix.AddPrepared(d)
				}
			}
			f.busy += time.Since(start)
		}
	}()
	return f
}

// prepare is a page task's share of indexing: the page's prepared document,
// or the zero document when the feed does not want the page or it cannot be
// read.
func (f *docFeed) prepare(hs *hostSite, page int) index.PreparedDoc {
	if f.only != nil && !f.only[hs.URLs[page]] {
		return index.PreparedDoc{}
	}
	pa := hs.analysis(page)
	if pa == nil {
		return index.PreparedDoc{}
	}
	return index.Prepare(pageDocument(pa.Page))
}

// join waits until the merger has merged everything queued and records, as
// child spans of ctx, the time the merger spent in the index over the whole
// pipeline (docindex.merge: work that ran behind other stages) and the time
// this call waited for it (docindex.wait: the part that did not hide).
func (f *docFeed) join(ctx context.Context) {
	start := time.Now()
	close(f.queue)
	<-f.done
	obs.Record(ctx, "docindex.merge", f.busy)
	obs.Record(ctx, "docindex.wait", time.Since(start))
}

// indexPages feeds every stored page to the document index, windows of
// pages read, parsed and prepared across the worker pool. The order they
// arrive in changes no answer: ranking ties break by ID.
func (b *Builder) indexPages(pages *webgraph.Store, feed *docFeed) {
	urls := pages.URLs()
	for lo := 0; lo < len(urls); lo += extractWindowPages {
		win := urls[lo:min(lo+extractWindowPages, len(urls))]
		docs := make([]index.PreparedDoc, len(win))
		parallelEach(len(win), b.workers(), func(i int) {
			if p, err := pages.Get(win[i]); err == nil {
				docs[i] = index.Prepare(pageDocument(p))
			}
		})
		feed.queue <- docs
		b.progress("index", lo+len(win), len(urls))
	}
}

// finishIndexes is the index stage of Build, BuildStream and Open: the
// document index was fed from the extract stage's page tasks (Open's, from
// indexPages) and merged behind the pipeline, so what is left is joining the
// merger and filling the record index.
func (b *Builder) finishIndexes(ctx context.Context, woc *WebOfConcepts, feed *docFeed) {
	feed.join(ctx)
	n := woc.DocIndex.Len()
	b.progress("index", n, n)
	b.indexRecords(woc)
}

// indexRecords fills the record inverted index. Analysis fans out over the
// worker pool via index.Prepare; the prepared documents then merge in store
// scan order, so internal doc and field numbering is identical at any worker
// count.
func (b *Builder) indexRecords(woc *WebOfConcepts) {
	var recs []*lrec.Record
	woc.Records.Scan(func(r *lrec.Record) bool {
		if r.Concept != "review" { // reviews are reachable via their subject
			recs = append(recs, r)
		}
		return true
	})
	rdocs := make([]index.PreparedDoc, len(recs))
	parallelEach(len(recs), b.workers(), func(i int) {
		rdocs[i] = index.Prepare(recordDocument(recs[i]))
	})
	for _, d := range rdocs {
		woc.RecIndex.AddPrepared(d)
	}
	b.updateIndexGauges(woc)
}

// updateIndexGauges publishes the posting entries of both indexes as the
// index.postings gauge.
func (b *Builder) updateIndexGauges(woc *WebOfConcepts) {
	if b.Cfg.Metrics == nil {
		return
	}
	b.Cfg.Metrics.Gauge("index.postings").Set(int64(woc.DocIndex.Postings() + woc.RecIndex.Postings()))
}

// pageDocument shapes a page for the document index.
func pageDocument(p *webgraph.Page) index.Document {
	title := ""
	if t := p.Doc.FindFirst("title"); t != nil {
		title = t.Text()
	}
	return index.Document{ID: p.URL, Fields: []index.Field{
		{Name: "title", Text: title, Boost: 2.5},
		{Name: "body", Text: p.Doc.Text()},
	}}
}

// recordDocument shapes a flattened lrec for the record index.
func recordDocument(r *lrec.Record) index.Document {
	name := r.Get("name")
	if name == "" {
		name = r.Get("title")
	}
	return index.Document{ID: r.ID, Fields: []index.Field{
		{Name: "name", Text: name, Boost: 3},
		{Name: "attrs", Text: r.FlatText()},
	}}
}
