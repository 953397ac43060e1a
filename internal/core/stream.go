package core

import (
	"context"
	"fmt"

	"conceptweb/internal/index"
)

// PageSource streams a corpus page by page. Implementations (such as
// webgen.StreamWorld) generate or read pages on demand; BuildStream never
// asks for the whole corpus at once. Returning an error from emit aborts the
// stream and surfaces the error from StreamPages.
type PageSource interface {
	StreamPages(emit func(url, html string) error) error
}

// indexChunk is how many pages the streamed index stage prepares per batch.
// Chunks are processed in sorted-URL order and AddPreparedBatch preserves
// relative order per shard, so chunked indexing assigns identical doc
// numbering to the one-shot path.
const indexChunk = 1024

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
//   - The document index is filled in bounded chunks instead of one
//     corpus-sized []PreparedDoc.
//   - No link graph is built: Graph remains nil. BuildGraph's output is
//     itself O(corpus) resident memory, which contradicts a bounded build;
//     callers needing relational classification run the in-memory path.
//
// The semantic-link and resolve stages are shared with Build, so for a
// corpus whose pages are all crawl-reachable the two paths produce
// identical stores, associations, and indexes (see stream_test.go).
func (b *Builder) BuildStream(src PageSource) (*WebOfConcepts, *BuildStats, error) {
	woc, storeRecovery, err := b.newWoc()
	if err != nil {
		return nil, nil, err
	}
	stats := &BuildStats{Workers: b.workers(), StoreRecovery: storeRecovery}
	ctx, root := pipelineCtx("build")

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
	b.stage(ctx, "extract", func(context.Context) {
		// No memo and no analyses kept: what a window of hosts holds dies
		// when the window has folded.
		b.extractPages(woc.Pages, woc.Pages.Hosts(), nil, cg, nil)
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

	b.stage(ctx, "index", func(context.Context) {
		b.buildIndexesChunked(woc)
	})

	root.End()
	stats.Trace = root.Report()
	stats.Epoch = woc.BumpEpoch()
	m := b.Cfg.Metrics
	m.Counter("build.runs").Inc()
	m.Counter("build.pages.fetched").Add(int64(stats.PagesFetched))
	m.Counter("build.candidates").Add(int64(stats.Candidates))
	m.Counter("build.records.stored").Add(int64(stats.RecordsStored))
	m.Counter("build.pages.linked").Add(int64(stats.PagesLinked))
	return woc, stats, nil
}

// buildIndexesChunked is buildIndexes with the page side bounded: prepared
// docs are batched indexChunk pages at a time in sorted-URL order.
func (b *Builder) buildIndexesChunked(woc *WebOfConcepts) {
	w := b.workers()
	urls := woc.Pages.URLs()
	for lo := 0; lo < len(urls); lo += indexChunk {
		hi := lo + indexChunk
		if hi > len(urls) {
			hi = len(urls)
		}
		chunk := urls[lo:hi]
		docs := make([]index.PreparedDoc, len(chunk))
		parallelEach(len(chunk), w, func(i int) {
			p, err := woc.Pages.Get(chunk[i])
			if err != nil {
				return
			}
			docs[i] = index.Prepare(pageDocument(p))
		})
		woc.DocIndex.AddPreparedBatch(docs, w)
		b.progress("index", hi, len(urls))
	}
	b.indexRecords(woc, w)
}
