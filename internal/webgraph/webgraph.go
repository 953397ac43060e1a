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

// HostOf returns the host of a URL of the form "host/path..." used
// throughout the system — what a Page's Host would be, without a read or a
// parse.
func HostOf(url string) string {
	host, _ := splitURL(url)
	return host
}

// splitURL splits a URL of the form "host/path..." into host and path.
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
	return &Page{
		URL: url, Host: host, Path: path,
		HTML: html, Doc: doc, Outlinks: resolveLinks(host, doc.Links()),
		Hash: HashContent(html),
	}
}

// scanOutlinks returns the outlinks NewPage would give the page, found by
// the tokenizer alone, without building a DOM.
func scanOutlinks(url, html string) []string {
	return resolveLinks(HostOf(url), htmlx.ScanLinks(html))
}

// resolveLinks puts a page's hrefs in the store's URL form: the scheme cut
// off absolute links, and host-relative paths prefixed with the page's host.
func resolveLinks(host string, links []string) []string {
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
	return resolved
}

// Store holds crawled pages, indexed by URL and host. Safe for concurrent
// use. A Store keeps page bytes, never a parse: every Get parses the stored
// HTML into a fresh *Page, on either backend, so what a caller holds it owns,
// and what stays resident is the bytes and a content hash per page. Pages
// (and their parsed htmlx DOMs) are immutable and cache nothing lazily, so
// the build pipeline's workers may read one *Page — including walking its
// Doc — from many goroutines at once.
//
// A Store is a facade over one of two byte-store backends: the default
// in-memory map (url → HTML and hash; the right choice for tests and
// laptop-scale worlds) or the disk-backed segment store opened with
// OpenDiskStore, which keeps only an offset index resident and preads a
// page's bytes on every Get — the corpus-scale backend (see segstore.go).
// The backend is invisible to callers: Get/Put/Delete/Scan behave
// identically, and Get's parse is the facade's.
type Store struct {
	b     backend
	stats storeCounters
}

// storeCounters are the page store's read-path counters. Every Get either
// parses the page or fails; nothing else in a store parses.
type storeCounters struct {
	gets, parses atomic.Uint64
}

// StoreStats is a snapshot of a store's read-path counters since it was
// opened: Get calls, and the HTML parses they performed. Gets exceeds Parses
// by the reads that failed (a missing or unreadable page).
type StoreStats struct {
	Gets, Parses uint64
}

// Stats returns the store's read-path counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{Gets: s.stats.gets.Load(), Parses: s.stats.parses.Load()}
}

// backend is the byte store behind the Store facade: page bytes and content
// hash by URL, plus a host index. Implementations must be safe for
// concurrent use.
type backend interface {
	put(url, html string, hash uint64) (changed bool, err error)
	delete(url string) bool
	get(url string) (html string, err error)
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
	return &Store{b: &memBackend{pages: make(map[string]memPage), byHost: make(map[string][]string)}}
}

// Put adds or replaces a page, keeping its bytes and hash; the parse the
// caller holds is not retained. It reports whether the content changed
// (true for new pages and modified bodies). On a disk-backed store a write
// failure latches the store (see Err) and Put reports false.
func (s *Store) Put(p *Page) (changed bool) {
	changed, _ = s.b.put(p.URL, p.HTML, p.Hash)
	return changed
}

// PutRaw is Put for a caller that holds only the page's bytes: a streamed
// ingest. It hashes and stores them without parsing, on either backend.
func (s *Store) PutRaw(url, html string) (changed bool) {
	changed, _ = s.b.put(url, html, HashContent(html))
	return changed
}

// Delete removes the page at url and reports whether it was present.
// The maintenance loop (§7.3) calls this when a page vanishes from the
// web; forgetting the old content hash is what lets a page that later
// reappears with identical bytes register as changed in Put and rejoin
// the index.
func (s *Store) Delete(url string) bool { return s.b.delete(url) }

// Get reads the page at url and parses it: a new *Page on every call, on
// either backend. Callers that need only membership, the content hash or
// the host use Has, Hash or HostOf, which read nothing.
func (s *Store) Get(url string) (*Page, error) {
	s.stats.gets.Add(1)
	html, err := s.b.get(url)
	if err != nil {
		return nil, err
	}
	s.stats.parses.Add(1)
	return NewPage(url, html), nil
}

// Has reports whether a page is stored at url. It is an index lookup — no
// read, no parse — so membership checks (link-graph pruning, maintenance
// scheduling, the supersede stage's host walk) stay cheap at corpus scale.
func (s *Store) Has(url string) bool { return s.b.has(url) }

// Hash returns the content hash of the page stored at url, like Has without
// a read or a parse. The maintenance pass compares it with the hash of a
// fetched body to skip parsing pages that did not change, and the extraction
// and link-feature memos key a page's entries by it.
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
// Each page is read and parsed as the scan reaches it, so a full scan holds
// no more pages resident than fn keeps — and costs a parse per page.
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

// memBackend is the default backend: every page's bytes and hash resident
// in a map.
type memBackend struct {
	mu     sync.RWMutex
	pages  map[string]memPage
	byHost map[string][]string
}

// memPage is what a memory store keeps of a page.
type memPage struct {
	html string
	hash uint64
}

func (s *memBackend) put(url, html string, hash uint64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.pages[url]
	if ok && old.hash == hash {
		return false, nil
	}
	if !ok {
		host := HostOf(url)
		s.byHost[host] = append(s.byHost[host], url)
	}
	s.pages[url] = memPage{html: html, hash: hash}
	return true, nil
}

func (s *memBackend) delete(url string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pages[url]; !ok {
		return false
	}
	delete(s.pages, url)
	host := HostOf(url)
	urls := s.byHost[host]
	for i, u := range urls {
		if u == url {
			urls = append(urls[:i], urls[i+1:]...)
			break
		}
	}
	if len(urls) == 0 {
		delete(s.byHost, host)
	} else {
		s.byHost[host] = urls
	}
	return true
}

func (s *memBackend) get(url string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pages[url]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotFound, url)
	}
	return p.html, nil
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
	return p.hash, ok
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
// Fetch errors (dead links) are counted but do not abort the crawl. A
// fetched page goes into the store as bytes (PutRaw): its outlinks are found
// by htmlx.ScanLinks, the tokenizer alone, so the crawl parses nothing and
// the page's one parse is its first Get — the outlinks are those NewPage
// would give.
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
			html     string
			outlinks []string
			err      error
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
				results[i] = result{html: html, outlinks: scanOutlinks(u, html)}
			}(i, u)
		}
		wg.Wait()

		for i, res := range results {
			if res.err != nil {
				failed++
				continue
			}
			fetched++
			c.Store.PutRaw(batch[i], res.html)
			for _, l := range res.outlinks {
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
