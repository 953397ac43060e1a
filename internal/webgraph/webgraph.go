// Package webgraph provides the crawl substrate: a Fetcher abstraction over
// a corpus of pages, a concurrent breadth-first crawler, a page store with
// content hashing for change detection (§7.3), and the site link graph used
// by relational classification (§4.2).
package webgraph

import (
	"errors"
	"sort"
	"strings"
	"sync"

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
