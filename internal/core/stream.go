package core

// PageSource streams a corpus page by page. Implementations (such as
// webgen.StreamWorld) generate or read pages on demand; BuildStream never
// asks for the whole corpus at once. Returning an error from emit aborts the
// stream and surfaces the error from StreamPages.
type PageSource interface {
	StreamPages(emit func(url, html string) error) error
}

// BuildStream constructs the web of concepts from a streamed page source
// with memory bounded by a site, never the corpus. It runs the same stage
// body as Build — extract, resolve, link, index — and differs from it in two
// things only:
//
//   - The first stage ingests: pages go straight from the source into the
//     page store, unparsed (pair with Config.PageStore =
//     webgraph.OpenDiskStore(...) to keep page bytes on disk), where Build
//     crawls. There is no crawl frontier and no []Page slice.
//   - No extraction memo is kept: the extract stage runs memo-less, and a
//     window's PageAnalysis values die when it has folded. The first
//     maintenance pass to touch a host fills the memo for it.
//
// Candidate order matches Build exactly, so for a corpus whose pages are all
// crawl-reachable the two produce identical stores, associations, and
// indexes (see buildstream_test.go).
func (b *Builder) BuildStream(src PageSource) (*WebOfConcepts, *BuildStats, error) {
	totalPages := 0
	if p, ok := src.(interface{ PlannedPages() int }); ok {
		totalPages = p.PlannedPages()
	}
	return b.build(nil, "ingest", func(woc *WebOfConcepts, stats *BuildStats) error {
		n := 0
		err := src.StreamPages(func(url, html string) error {
			woc.Pages.PutRaw(url, html)
			if err := woc.Pages.Err(); err != nil {
				return err
			}
			n++
			if n%512 == 0 {
				b.progress("ingest", n, totalPages)
			}
			return nil
		})
		if err == nil {
			err = woc.Pages.Flush()
		}
		stats.PagesFetched = n
		b.progress("ingest", n, totalPages)
		return err
	})
}
