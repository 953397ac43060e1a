package webgraph

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"conceptweb/internal/htmlx"
	"conceptweb/internal/webgen"
)

// miniWeb is a hand-built fetcher for focused crawler tests.
type miniWeb map[string]string

func (m miniWeb) Fetch(url string) (string, error) {
	html, ok := m[url]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotFound, url)
	}
	return html, nil
}

func linked(links ...string) string {
	out := "<html><body>"
	for _, l := range links {
		out += `<a href="` + l + `">x</a>`
	}
	return out + "</body></html>"
}

func TestCrawlBFS(t *testing.T) {
	web := miniWeb{
		"a.example/":   linked("/p1", "/p2"),
		"a.example/p1": linked("/p2", "b.example/"),
		"a.example/p2": linked(),
		"b.example/":   linked(),
	}
	st := newStore(t)
	c := &Crawler{Fetcher: web, Store: st}
	fetched, failed := c.Crawl([]string{"a.example/"})
	if fetched != 4 || failed != 0 {
		t.Fatalf("fetched=%d failed=%d", fetched, failed)
	}
	if st.Len() != 4 {
		t.Errorf("store len = %d", st.Len())
	}
}

func TestCrawlDeadLinks(t *testing.T) {
	web := miniWeb{"a.example/": linked("/missing", "/p1"), "a.example/p1": linked()}
	st := newStore(t)
	c := &Crawler{Fetcher: web, Store: st}
	fetched, failed := c.Crawl([]string{"a.example/"})
	if fetched != 2 || failed != 1 {
		t.Errorf("fetched=%d failed=%d", fetched, failed)
	}
}

func TestStoreChangeDetection(t *testing.T) {
	st := newStore(t)
	p1 := NewPage("a.example/x", "<html><body>v1</body></html>")
	if !st.Put(p1) {
		t.Error("new page should report changed")
	}
	if st.Put(NewPage("a.example/x", "<html><body>v1</body></html>")) {
		t.Error("identical content should report unchanged")
	}
	if !st.Put(NewPage("a.example/x", "<html><body>v2</body></html>")) {
		t.Error("modified content should report changed")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d", st.Len())
	}
}

func TestStoreDelete(t *testing.T) {
	st := newStore(t)
	st.Put(NewPage("a.example/1", "<html><body>one</body></html>"))
	st.Put(NewPage("a.example/2", "<html><body>two</body></html>"))
	if !st.Delete("a.example/1") {
		t.Error("Delete of present page should report true")
	}
	if st.Delete("a.example/1") {
		t.Error("second Delete should report false")
	}
	if st.Len() != 1 {
		t.Errorf("Len after delete = %d", st.Len())
	}
	if _, err := st.Get("a.example/1"); err == nil {
		t.Error("deleted page still readable")
	}
	if got := st.HostPages("a.example"); !reflect.DeepEqual(got, []string{"a.example/2"}) {
		t.Errorf("HostPages after delete = %v", got)
	}
	// The resurrection contract: identical bytes after a delete must
	// register as changed again, because the old hash is gone.
	if !st.Put(NewPage("a.example/1", "<html><body>one</body></html>")) {
		t.Error("re-Put after Delete should report changed")
	}
	if st.Delete("a.example/2") && st.Delete("a.example/1") {
		if got := st.Hosts(); len(got) != 0 {
			t.Errorf("Hosts after deleting all pages = %v", got)
		}
	} else {
		t.Error("deletes of present pages failed")
	}
}

func TestStoreHostIndex(t *testing.T) {
	st := newStore(t)
	st.Put(NewPage("a.example/1", linked()))
	st.Put(NewPage("a.example/2", linked()))
	st.Put(NewPage("b.example/1", linked()))
	if got := st.Hosts(); !reflect.DeepEqual(got, []string{"a.example", "b.example"}) {
		t.Errorf("Hosts = %v", got)
	}
	if got := st.HostPages("a.example"); len(got) != 2 {
		t.Errorf("HostPages = %v", got)
	}
}

func TestBuildGraph(t *testing.T) {
	st := newStore(t)
	st.Put(NewPage("a.example/1", linked("/2", "/2", "external.example/")))
	st.Put(NewPage("a.example/2", linked("/1")))
	g := BuildGraph(st)
	if !reflect.DeepEqual(g.Out["a.example/1"], []string{"a.example/2"}) {
		t.Errorf("Out = %v (dups/externals should be gone)", g.Out["a.example/1"])
	}
	if !reflect.DeepEqual(g.In["a.example/1"], []string{"a.example/2"}) {
		t.Errorf("In = %v", g.In["a.example/1"])
	}
}

func TestDirectory(t *testing.T) {
	cases := map[string]string{
		"a.example/calendar/ev-1": "calendar",
		"a.example/":              "",
		"a.example/about":         "", // root-level leaf: no directory
		"a.example/dir/sub/leaf":  "dir",
		"a.example":               "",
	}
	for url, want := range cases {
		if got := Directory(url); got != want {
			t.Errorf("Directory(%q) = %q, want %q", url, got, want)
		}
	}
}

func TestRelativeLinkResolution(t *testing.T) {
	p := NewPage("h.example/dir/page", `<html><body><a href="/abs">a</a><a href="http://x.example/y">b</a></body></html>`)
	if !reflect.DeepEqual(p.Outlinks, []string{"h.example/abs", "x.example/y"}) {
		t.Errorf("Outlinks = %v", p.Outlinks)
	}
}

// WorldFetcher adapts a webgen.World — this is the integration seam used by
// the whole pipeline, so test it here.
func worldFetcher(w *webgen.World) Fetcher {
	return FetcherFunc(func(url string) (string, error) {
		p, ok := w.PageByURL(url)
		if !ok {
			return "", fmt.Errorf("%w: %s", ErrNotFound, url)
		}
		return p.HTML, nil
	})
}

func TestCrawlSyntheticWorld(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 30
	cfg.ReviewArticles = 10
	w := webgen.Generate(cfg)
	st := newStore(t)
	c := &Crawler{Fetcher: worldFetcher(w), Store: st}
	fetched, _ := c.Crawl([]string{webgen.PrimaryAggregator + "/c/cupertino-italian"})
	if fetched == 0 {
		t.Skip("no italian restaurants in cupertino at this seed")
	}
	// Crawling the whole primary aggregator from its category pages.
	site, _ := w.SiteByHost(webgen.PrimaryAggregator)
	var seeds []string
	for _, p := range site.Pages {
		if p.Truth.Kind == webgen.KindCategory {
			seeds = append(seeds, p.URL)
		}
	}
	st2 := newStore(t)
	c2 := &Crawler{Fetcher: worldFetcher(w), Store: st2}
	c2.Crawl(seeds)
	if st2.Len() < len(seeds) {
		t.Errorf("crawled %d < %d seeds", st2.Len(), len(seeds))
	}
	// Every crawled page should parse and have a host.
	st2.Scan(func(p *Page) bool {
		if p.Host == "" || p.Doc == nil {
			t.Errorf("bad page %s", p.URL)
		}
		return true
	})
}

// TestCrawlFindsParsedOutlinks: the crawl scans each page for its outlinks
// without parsing it, and finds exactly the outlinks a parse gives, on every
// page of the synthetic world; the crawled store then holds every page's
// bytes with no parse paid.
func TestCrawlFindsParsedOutlinks(t *testing.T) {
	w := webgen.Generate(webgen.DefaultConfig())
	for _, p := range w.Pages() {
		if got, want := scanOutlinks(p.URL, p.HTML), NewPage(p.URL, p.HTML).Outlinks; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scan found %q, parse %q", p.URL, got, want)
		}
	}
	st := newStore(t)
	c := &Crawler{Fetcher: worldFetcher(w), Store: st}
	fetched, _ := c.Crawl(w.SeedURLs())
	if fetched == 0 || st.Len() != fetched || st.Stats().Parses != 0 {
		t.Fatalf("crawl fetched %d, stored %d, parsed %d", fetched, st.Len(), st.Stats().Parses)
	}
}

func TestCrawlDeterministic(t *testing.T) {
	web := miniWeb{
		"a.example/":  linked("/b", "/c"),
		"a.example/b": linked("/d"),
		"a.example/c": linked("/d"),
		"a.example/d": linked(),
	}
	run := func() []string {
		st := newStore(t)
		c := &Crawler{Fetcher: web, Store: st}
		c.Crawl([]string{"a.example/"})
		return st.URLs()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("crawl not deterministic")
	}
}

// TestHashContentIsFNV1a pins the in-place hash to hash/fnv's 64-bit FNV-1a:
// stored page hashes and hash-derived record IDs must not move.
func TestHashContentIsFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "<html><body>café — 95014</body></html>", strings.Repeat("x\x00y", 1000)} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := HashContent(s), h.Sum64(); got != want {
			t.Errorf("HashContent(%q...) = %x, fnv-1a %x", s[:min(len(s), 8)], got, want)
		}
	}
}

// renderDOM writes the tree under n — node types, tag names and texts,
// attributes in order — one node a line, indented by depth, failing if a
// child does not point back at its parent.
func renderDOM(t *testing.T, b *strings.Builder, n *htmlx.Node, depth int) {
	fmt.Fprintf(b, "%s%d %q", strings.Repeat(" ", depth), n.Type, n.Data)
	for _, a := range n.Attr {
		fmt.Fprintf(b, " %q=%q", a.Key, a.Val)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		if c.Parent != n {
			t.Fatalf("child %q of %q has another parent", c.Data, n.Data)
		}
		renderDOM(t, b, c, depth+1)
	}
}

// FuzzNewPageDeterministic: parse-on-read stands on a page being a pure
// function of its URL and bytes — every Get parses anew, and the memos key
// what they keep by the content hash alone — so two NewPage calls over the
// same input must agree on text, outlinks, hash and the rendered DOM, and
// neither may panic. The crawl, which stores bytes unparsed, must find the
// outlinks NewPage finds. Seeded from the synthetic world, one page of every
// kind.
func FuzzNewPageDeterministic(f *testing.F) {
	cfg := webgen.DefaultConfig()
	cfg.Restaurants, cfg.ReviewArticles = 20, 6
	kinds := map[string]bool{}
	for _, p := range webgen.Generate(cfg).Pages() {
		if !kinds[p.Truth.Kind] {
			kinds[p.Truth.Kind] = true
			f.Add(p.URL, p.HTML)
		}
	}
	f.Add("a.example", `<a href="https://b.example/x">b<a href=/y>y</a><p>unclosed <b>tags`)
	f.Fuzz(func(t *testing.T, url, html string) {
		a, b := NewPage(url, html), NewPage(url, html)
		if a.Doc.Text() != b.Doc.Text() {
			t.Fatalf("Text differs between two parses of the same bytes")
		}
		if !reflect.DeepEqual(a.Outlinks, b.Outlinks) {
			t.Fatalf("Outlinks differ: %q vs %q", a.Outlinks, b.Outlinks)
		}
		if scanned := scanOutlinks(url, html); !reflect.DeepEqual(scanned, a.Outlinks) {
			t.Fatalf("the crawl's link scan found %q, the parse %q", scanned, a.Outlinks)
		}
		if a.Hash != b.Hash || a.Hash != HashContent(html) {
			t.Fatalf("hashes %x, %x over the same bytes", a.Hash, b.Hash)
		}
		if a.URL != url || a.Host != b.Host || a.Path != b.Path || a.Host != HostOf(url) {
			t.Fatalf("URL split differs: %q %q %q / %q %q", a.Host, a.Path, HostOf(url), b.Host, b.Path)
		}
		var ra, rb strings.Builder
		renderDOM(t, &ra, a.Doc, 0)
		renderDOM(t, &rb, b.Doc, 0)
		if ra.String() != rb.String() {
			t.Fatalf("rendered DOMs differ:\n%s\nvs\n%s", ra.String(), rb.String())
		}
	})
}
