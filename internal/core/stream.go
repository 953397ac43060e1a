package core

import (
	"context"
	"fmt"
)

// PageSource streams a corpus page by page. Implementations (such as
// webgen.StreamWorld) generate or read pages on demand; BuildStream never
// asks for the whole corpus at once. Returning an error from emit aborts the
// stream and surfaces the error from StreamPages.
type PageSource interface {
	StreamPages(emit func(url, html string) error) error
}

// BuildStream constructs the web of concepts from a streamed page source
// with memory bounded by a site, never the corpus (ISSUE 9). It differs from
// Build in exactly the ways unbounded state hides in the full pipeline:
//
//   - Pages are ingested straight into the page store as the source emits
//     them, unparsed (pair with Config.PageStore = webgraph.OpenDiskStore(...)
//     to keep page bytes on disk). There is no crawl frontier and no []Page
//     slice.
//   - Extraction runs the shared page-task stage (extractPages) memo-less,
//     a window of hosts at a time; a window's PageAnalysis values die when
//     it has folded. Build's build-wide analyses map — every DOM and token
//     stream in the corpus, alive until the link stage — is the single
//     largest resident structure in a full build and does not exist here,
//     and neither does the extraction memo. Candidate order still matches
//     Build exactly, so resolution output is identical.
//
// The extract, resolve, semantic-link and index stages are shared with
// Build, so for a corpus whose pages are all crawl-reachable the two paths
// produce identical stores, associations, and indexes (see
// buildstream_test.go). In both, the document index is fed from the extract
// stage's page tasks (docFeed), so prepared documents are resident a few
// windows at a time and never as one corpus-sized slice.
func (b *Builder) BuildStream(src PageSource) (*WebOfConcepts, *BuildStats, error) {
	woc, storeRecovery, err := b.newWoc()
	if err != nil {
		return nil, nil, err
	}
	stats := &BuildStats{Workers: b.workers(), StoreRecovery: storeRecovery}
	ctx, root := pipelineCtx("build")
	parsed := woc.Pages.Stats().Parses

	totalPages := 0
	if p, ok := src.(interface{ PlannedPages() int }); ok {
		totalPages = p.PlannedPages()
	}

	var ingestErr error
	b.stage(ctx, "ingest", func(context.Context) {
		n := 0
		ingestErr = src.StreamPages(func(url, html string) error {
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
		if ingestErr == nil {
			ingestErr = woc.Pages.Flush()
		}
		stats.PagesFetched = n
		b.progress("ingest", n, totalPages)
	})
	if ingestErr != nil {
		return nil, nil, fmt.Errorf("core: ingest: %w", ingestErr)
	}

	cg := newConceptGroups(nil)
	feed := feedDocIndex(woc.DocIndex, nil)
	b.stage(ctx, "extract", func(context.Context) {
		// No memo and no analyses kept: what a window of hosts holds dies
		// when the window has folded.
		b.extractPages(woc.Pages, woc.Pages.Hosts(), nil, cg, nil, feed)
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
		// nil analyses: the link stage re-analyzes candidate pages through
		// the page store's parse cache instead of holding every analysis.
		b.linkText(woc, stats, nil)
	})

	b.stage(ctx, "index", func(sctx context.Context) {
		b.finishIndexes(sctx, woc, feed)
	})

	b.finishBuild(woc, stats, root, parsed)
	return woc, stats, nil
}
