// Package webgraph provides the crawl substrate: a Fetcher abstraction over
// a corpus of pages, a concurrent breadth-first crawler, a page store with
// content hashing for change detection (§7.3), and the site link graph used
// by relational classification (§4.2).
package webgraph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"conceptweb/internal/htmlx"
)

// ErrNotFound is returned when a URL cannot be fetched or found.
var ErrNotFound = errors.New("webgraph: page not found")

// Fetcher retrieves the HTML of a URL. Implementations include the synthetic
// world (webgen) and, in a production deployment, an HTTP client.
// Implementations must be safe for concurrent use: the crawler calls Fetch
// from several workers at once.
type Fetcher interface {
	Fetch(url string) (html string, err error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(url string) (string, error)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(url string) (string, error) { return f(url) }

// Page is one crawled page: raw HTML, its parsed DOM, outlinks, and a
// content hash used to detect modification across recrawls.
type Page struct {
	URL      string
	Host     string
	Path     string
	HTML     string
	Doc      *htmlx.Node
	Outlinks []string
	Hash     uint64
}

// Host splits a URL of the form "host/path..." used throughout the system.
func splitURL(url string) (host, path string) {
	if i := strings.IndexByte(url, '/'); i >= 0 {
		return url[:i], url[i:]
	}
	return url, "/"
}

// HashContent returns the 64-bit FNV-1a hash of a page body, computed in
// place: a maintenance pass hashes every fetched body, and hash/fnv would
// copy each one to a byte slice first.
func HashContent(html string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(html); i++ {
		h ^= uint64(html[i])
		h *= 1099511628211
	}
	return h
}

// NewPage parses raw HTML into a Page: DOM, resolved outlinks, content hash.
func NewPage(url, html string) *Page {
	host, path := splitURL(url)
	doc := htmlx.Parse(html)
	links := doc.Links()
	// Resolve relative links against the host.
	resolved := make([]string, 0, len(links))
	for _, l := range links {
		switch {
		case strings.HasPrefix(l, "http://"):
			l = strings.TrimPrefix(l, "http://")
		case strings.HasPrefix(l, "https://"):
			l = strings.TrimPrefix(l, "https://")
		}
		if strings.HasPrefix(l, "/") {
			l = host + l
		}
		resolved = append(resolved, l)
	}
	return &Page{
		URL: url, Host: host, Path: path,
		HTML: html, Doc: doc, Outlinks: resolved,
		Hash: HashContent(html),
	}
}

// Store holds crawled pages, indexed by URL and host. Safe for concurrent
// use. Pages themselves (and their parsed htmlx DOMs) are immutable once
// stored and cache nothing lazily, so the build pipeline's workers may read
// the same *Page — including walking its Doc — from many goroutines at once.
//
// A Store is a facade over one of two backends: the default in-memory map
// (every page and its parsed DOM resident, the right choice for tests and
// laptop-scale worlds) or the disk-backed segment store opened with
// OpenDiskStore, which keeps only an offset index resident and parses a
// page on every Get — the corpus-scale backend (see segstore.go). The
// backend is invisible to callers: Get/Put/Delete/Scan behave identically.
type Store struct {
	b backend
	// stats is shared with the backend, which counts what only it can see.
	stats *storeCounters
}

// storeCounters are the page store's read-path counters. Every Get is either
// a hit (the parsed page was resident: always, for a memory store, never for
// a disk store) or a parse, or fails. A memory store also
// parses on PutRaw, the only other place a store parses on a caller's behalf.
type storeCounters struct {
	gets, parses, hits atomic.Uint64
}

// StoreStats is a snapshot of a store's read-path counters since it was
// opened: Get calls, HTML parses the store performed (every disk store read;
// a memory store's PutRaw), and Gets answered with an already-parsed page
// (memory stores only).
type StoreStats struct {
	Gets, Parses, CacheHits uint64
}

// Stats returns the store's read-path counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{Gets: s.stats.gets.Load(), Parses: s.stats.parses.Load(), CacheHits: s.stats.hits.Load()}
}

// backend is the storage contract behind the Store facade. Implementations
// must be safe for concurrent use.
type backend interface {
	put(p *Page) (changed bool, err error)
	putRaw(url, html string) (changed bool, err error)
	delete(url string) bool
	get(url string) (*Page, error)
	has(url string) bool
	hash(url string) (uint64, bool)
	count() int
	urls() []string
	hosts() []string
	hostPages(host string) []string
	flush() error
	close() error
	err() error
}

// NewStore returns an empty in-memory page store.
func NewStore() *Store {
	c := new(storeCounters)
	return &Store{b: &memBackend{pages: make(map[string]*Page), byHost: make(map[string][]string), stats: c}, stats: c}
}

// Put adds or replaces a page. It reports whether the content changed
// (true for new pages and modified bodies). On a disk-backed store a write
// failure latches the store (see Err) and Put reports false.
func (s *Store) Put(p *Page) (changed bool) {
	changed, _ = s.b.put(p)
	return changed
}

// PutRaw is Put for a caller that holds only the page's bytes and has no use
// for the parse: a streamed ingest. The disk backend hashes and appends
// without parsing; the memory backend, which keeps every page parsed, parses
// as Put's caller would have.
func (s *Store) PutRaw(url, html string) (changed bool) {
	changed, _ = s.b.putRaw(url, html)
	return changed
}

// Delete removes the page at url and reports whether it was present.
// The maintenance loop (§7.3) calls this when a page vanishes from the
// web; forgetting the old content hash is what lets a page that later
// reappears with identical bytes register as changed in Put and rejoin
// the index.
func (s *Store) Delete(url string) bool { return s.b.delete(url) }

// Get returns the page at url.
func (s *Store) Get(url string) (*Page, error) {
	s.stats.gets.Add(1)
	return s.b.get(url)
}

// Has reports whether a page is stored at url. On a disk-backed store this
// is an index lookup — no segment read, no parse — so membership checks
// (link-graph pruning, maintenance scheduling) stay cheap at corpus scale.
func (s *Store) Has(url string) bool { return s.b.has(url) }

// Hash returns the content hash of the page stored at url, like Has without
// a read or a parse. The maintenance pass compares it with the hash of a
// fetched body to skip parsing pages that did not change, and the extraction
// memo keys a page's candidates by it.
func (s *Store) Hash(url string) (uint64, bool) { return s.b.hash(url) }

// Len returns the number of stored pages.
func (s *Store) Len() int { return s.b.count() }

// URLs returns all stored URLs, sorted.
func (s *Store) URLs() []string { return s.b.urls() }

// Hosts returns all hosts with at least one page, sorted.
func (s *Store) Hosts() []string { return s.b.hosts() }

// HostPages returns the URLs of a host's pages, sorted.
func (s *Store) HostPages(host string) []string { return s.b.hostPages(host) }

// Flush makes appended pages durable (fsync); a no-op for memory stores.
func (s *Store) Flush() error { return s.b.flush() }

// Close releases backend resources (segment file handles); a no-op for
// memory stores. The store must not be used after Close.
func (s *Store) Close() error { return s.b.close() }

// Err returns the latched write error of a disk-backed store (nil while
// healthy, and always nil for memory stores). After a write failure the
// store keeps serving reads but rejects further puts, mirroring the lrec
// degraded-latch contract.
func (s *Store) Err() error { return s.b.err() }

// Scan calls fn for each page in sorted-URL order; return false to stop.
// On a disk-backed store each page is read and parsed as the scan reaches
// it, so a full scan holds no more pages resident than fn keeps.
func (s *Store) Scan(fn func(*Page) bool) {
	for _, u := range s.URLs() {
		p, err := s.Get(u)
		if err != nil {
			continue
		}
		if !fn(p) {
			return
		}
	}
}

// memBackend is the default backend: every page resident in a map.
type memBackend struct {
	mu     sync.RWMutex
	pages  map[string]*Page
	byHost map[string][]string
	stats  *storeCounters
}

func (s *memBackend) put(p *Page) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.pages[p.URL]
	if ok && old.Hash == p.Hash {
		return false, nil
	}
	if !ok {
		s.byHost[p.Host] = append(s.byHost[p.Host], p.URL)
	}
	s.pages[p.URL] = p
	return true, nil
}

func (s *memBackend) putRaw(url, html string) (bool, error) {
	s.stats.parses.Add(1)
	return s.put(NewPage(url, html))
}

func (s *memBackend) delete(url string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pages[url]
	if !ok {
		return false
	}
	delete(s.pages, url)
	urls := s.byHost[p.Host]
	for i, u := range urls {
		if u == url {
			urls = append(urls[:i], urls[i+1:]...)
			break
		}
	}
	if len(urls) == 0 {
		delete(s.byHost, p.Host)
	} else {
		s.byHost[p.Host] = urls
	}
	return true
}

func (s *memBackend) get(url string) (*Page, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pages[url]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, url)
	}
	s.stats.hits.Add(1)
	return p, nil
}

func (s *memBackend) has(url string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.pages[url]
	return ok
}

func (s *memBackend) hash(url string) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pages[url]
	if !ok {
		return 0, false
	}
	return p.Hash, true
}

func (s *memBackend) count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

func (s *memBackend) urls() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.pages))
	for u := range s.pages {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

func (s *memBackend) hosts() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byHost))
	for h := range s.byHost {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

func (s *memBackend) hostPages(host string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := append([]string(nil), s.byHost[host]...)
	sort.Strings(out)
	return out
}

func (s *memBackend) flush() error { return nil }
func (s *memBackend) close() error { return nil }
func (s *memBackend) err() error   { return nil }

// crawlFetchers is the number of fetches a crawl keeps in flight.
const crawlFetchers = 8

// Crawler performs a bounded-concurrency BFS crawl.
type Crawler struct {
	Fetcher Fetcher
	Store   *Store
	// MaxPages bounds the crawl (0 = unlimited).
	MaxPages int
}

// Crawl runs BFS from seeds and returns the number of pages fetched.
// Fetch errors (dead links) are counted but do not abort the crawl.
func (c *Crawler) Crawl(seeds []string) (fetched int, failed int) {
	seen := make(map[string]bool)
	frontier := append([]string(nil), seeds...)
	for _, u := range seeds {
		seen[u] = true
	}

	for len(frontier) > 0 {
		if c.MaxPages > 0 && fetched >= c.MaxPages {
			break
		}
		batch := frontier
		if c.MaxPages > 0 && fetched+len(batch) > c.MaxPages {
			batch = batch[:c.MaxPages-fetched]
		}
		frontier = nil

		type result struct {
			page *Page
			err  error
		}
		results := make([]result, len(batch))
		var wg sync.WaitGroup
		sem := make(chan struct{}, crawlFetchers)
		for i, u := range batch {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, u string) {
				defer wg.Done()
				defer func() { <-sem }()
				html, err := c.Fetcher.Fetch(u)
				if err != nil {
					results[i] = result{err: err}
					return
				}
				results[i] = result{page: NewPage(u, html)}
			}(i, u)
		}
		wg.Wait()

		for _, res := range results {
			if res.err != nil {
				failed++
				continue
			}
			fetched++
			c.Store.Put(res.page)
			for _, l := range res.page.Outlinks {
				if seen[l] {
					continue
				}
				seen[l] = true
				frontier = append(frontier, l)
			}
		}
		sort.Strings(frontier) // deterministic order across runs
	}
	return fetched, failed
}

// Graph is the directed link graph over crawled pages.
type Graph struct {
	Out map[string][]string
	In  map[string][]string
}

// BuildGraph constructs the link graph restricted to pages present in the
// store (external links are dropped).
func BuildGraph(s *Store) *Graph {
	g := &Graph{Out: make(map[string][]string), In: make(map[string][]string)}
	s.Scan(func(p *Page) bool {
		for _, l := range p.Outlinks {
			if !s.Has(l) {
				continue
			}
			if l == p.URL {
				continue
			}
			g.Out[p.URL] = append(g.Out[p.URL], l)
			g.In[l] = append(g.In[l], p.URL)
		}
		return true
	})
	for _, m := range []map[string][]string{g.Out, g.In} {
		for k := range m {
			m[k] = dedupSorted(m[k])
		}
	}
	return g
}

func dedupSorted(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	var prev string
	for i, s := range in {
		if i == 0 || s != prev {
			out = append(out, s)
		}
		prev = s
	}
	return out
}

// Directory returns the first path segment of a URL's path ("" for root) —
// the "pages in a directory called calendar" signal of §4.2.
func Directory(url string) string {
	_, path := splitURL(url)
	path = strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return ""
}
