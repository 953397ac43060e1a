package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"conceptweb/internal/extract"
	"conceptweb/internal/lrec"
	"conceptweb/internal/match"
	"conceptweb/internal/obs"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgraph"
)

// Maintenance (§7.3): "there is an obvious efficiency challenge in
// processing the same web pages repeatedly without re-incurring the full
// cost of extraction when the page is not modified in a material way", and
// updated pages must be linked to existing records "to correctly update
// existing records rather than create new ones".

// RefreshStats reports one incremental maintenance pass.
type RefreshStats struct {
	PagesChecked   int
	PagesUnchanged int // extraction skipped entirely
	PagesChanged   int
	PagesGone      int // fetch failed: page removed from retrieval
	RecordsUpdated int
	RecordsCreated int
	// RecordsSuperseded counts records retired by a changed page's lineage
	// and rebuilt by host re-extraction; RecordsDeleted counts retired
	// records the new corpus no longer supports at all.
	RecordsSuperseded int
	RecordsDeleted    int
	// PagesRelinked counts changed free-text pages re-linked to a record by
	// the semantic-link pass (the delta analogue of the build link stage).
	PagesRelinked int
	// UpsertCompared and UpsertPruned count the (incoming, stored) record
	// pairs the upsert stage scored exactly and the pairs its upper bound
	// ruled out unscored.
	UpsertCompared int
	UpsertPruned   int
	// PagesAnalyzed counts the pages of the re-extracted hosts the extract
	// stage read and analysed, PagesReplayed the pages it answered from the
	// extraction memo. HostsReinduced counts re-extracted hosts whose
	// trusted-signature set changed, sending the propagate and detail passes
	// back over the whole site — the wrapper-drift signal.
	PagesAnalyzed  int
	PagesReplayed  int
	HostsReinduced int
	// Workers annotates the pass with the worker-pool size the parallel
	// refetch/extract stages ran at.
	Workers int
	// Epoch is the data generation after the pass: bumped when the pass
	// changed visible state (pages changed or gone, records touched),
	// unchanged otherwise so result caches stay warm across no-op refreshes.
	Epoch uint64
	// Trace is the per-stage timing tree of the pass (refetch/extract/upsert).
	Trace *obs.TraceReport
}

// Refresh re-fetches the given URLs against the builder's fetcher, skipping
// extraction for unmodified pages (content-hash comparison) and folding
// changes back in through the build's own pipeline stages. Records downstream
// of a changed page are retired entirely (lineage-driven: in-place value
// stripping cannot converge, because value dedupe folds sibling pages'
// co-assertions into one provenance entry), then their source hosts are
// re-extracted, re-resolved, and upserted; a relink pass re-runs the
// free-text link stage wherever retired or rebuilt records could shift
// text-match scores. The invariant, enforced by the delta-equivalence test:
// a delta pass lands on exactly the store content, association maps, and
// search results a fresh build over the new corpus would produce.
//
// Refetch (fetch + parse) and re-extraction fan out over the same worker
// pool as Build, fanning back in by task index: store/index mutations and
// upserts apply in input-URL order, so a refresh is deterministic at any
// Config.Workers value.
func (b *Builder) Refresh(woc *WebOfConcepts, urls []string) (*RefreshStats, error) {
	stats := &RefreshStats{Workers: b.workers()}
	ctx, root := pipelineCtx("refresh")
	defer func() {
		root.End()
		stats.Trace = root.Report()
		// Changed visible state invalidates epoch-keyed result caches; a
		// pass that found nothing new leaves them warm.
		if stats.PagesChanged > 0 || stats.PagesGone > 0 ||
			stats.RecordsUpdated > 0 || stats.RecordsCreated > 0 ||
			stats.RecordsSuperseded > 0 || stats.RecordsDeleted > 0 ||
			stats.PagesRelinked > 0 {
			stats.Epoch = woc.BumpEpoch()
		} else {
			stats.Epoch = woc.Epoch()
		}
		m := b.Cfg.Metrics
		m.Counter("refresh.runs").Inc()
		m.Counter("refresh.pages.checked").Add(int64(stats.PagesChecked))
		m.Counter("refresh.pages.unchanged").Add(int64(stats.PagesUnchanged))
		m.Counter("refresh.pages.changed").Add(int64(stats.PagesChanged))
		m.Counter("refresh.pages.gone").Add(int64(stats.PagesGone))
		m.Counter("refresh.records.superseded").Add(int64(stats.RecordsSuperseded))
		m.Counter("refresh.records.deleted").Add(int64(stats.RecordsDeleted))
		m.Counter("refresh.pages.relinked").Add(int64(stats.PagesRelinked))
		m.Counter("refresh.upsert.compared").Add(int64(stats.UpsertCompared))
		m.Counter("refresh.upsert.pruned").Add(int64(stats.UpsertPruned))
		m.Counter("refresh.extract.analyzed").Add(int64(stats.PagesAnalyzed))
		m.Counter("refresh.extract.replayed").Add(int64(stats.PagesReplayed))
		m.Counter("refresh.extract.reinduced").Add(int64(stats.HostsReinduced))
		b.updateIndexGauges(woc)
	}()

	var changed []*webgraph.Page
	var putErr error // a page write that latched the page store
	b.stage(ctx, "refetch", func(context.Context) {
		// Fetch in parallel, hashing each body against the page store's
		// hash for the URL and parsing only the bodies that differ; apply
		// results in input-URL order.
		pages := make([]*webgraph.Page, len(urls))
		same := make([]bool, len(urls))
		parallelEach(len(urls), b.workers(), func(i int) {
			html, err := b.Fetcher.Fetch(urls[i])
			if err != nil {
				return
			}
			if h, ok := woc.Pages.Hash(urls[i]); ok && h == webgraph.HashContent(html) {
				same[i] = true
				return
			}
			pages[i] = webgraph.NewPage(urls[i], html)
		})
		for i, u := range urls {
			stats.PagesChecked++
			if same[i] {
				stats.PagesUnchanged++
				continue
			}
			p := pages[i]
			if p == nil {
				// The page is gone ("restaurants close down", §7.3): drop it
				// from the page store and retrieval and sever its
				// associations. Forgetting the stored content hash is load-
				// bearing: a page that later reappears with identical bytes
				// must register as changed in Pages.Put, or it would never be
				// re-indexed (the gone→resurrect bug). Its contribution to
				// records remains, flagged by lineage, until re-extraction on
				// reappearance supersedes it.
				stats.PagesGone++
				woc.Pages.Delete(u)
				woc.memo.drop(u)
				delete(woc.links, u)
				woc.DocIndex.Remove(u)
				// Remember which records the dead page fed a value to (the
				// lineage ledger): when the page resurrects, the supersede
				// stage retires them even though the live maps below are
				// severed now — and even if a rebuild in the page's absence
				// has dropped its values from them meanwhile, because the
				// rebuilt record then lacks what a fresh build over the
				// resurrected corpus folds in first.
				for _, id := range woc.Assoc[u] {
					if rec, err := woc.Records.Get(id); err == nil && sourcedFrom(rec, u) {
						if woc.goneAssoc == nil {
							woc.goneAssoc = make(map[string][]string)
						}
						woc.goneAssoc[u] = append(woc.goneAssoc[u], id)
					}
				}
				for _, id := range woc.Assoc[u] {
					removeAssoc(woc.RevAssoc, id, u)
				}
				delete(woc.Assoc, u)
				continue
			}
			if !woc.Pages.Put(p) {
				if putErr = woc.Pages.Err(); putErr != nil {
					return // before anything downstream of the page changes
				}
				stats.PagesUnchanged++ // the same bytes after all
				continue
			}
			stats.PagesChanged++
			changed = append(changed, p)
		}
	})
	if putErr != nil {
		return stats, fmt.Errorf("core: refresh: %w", putErr)
	}
	if len(changed) == 0 {
		return stats, nil
	}

	// Retire every record downstream of a changed page (the lineage walk)
	// and remember which hosts fed those records: extraction is site-scoped,
	// so converging on a fresh build means re-running the extract stage over
	// the retired records' source sites, not just the changed pages.
	var retired map[string]*lrec.Record
	var hosts map[string]bool
	b.stage(ctx, "supersede", func(context.Context) {
		retired, hosts = b.retireAffected(woc, changed, stats)
	})

	// Re-extract the affected hosts through the build's own extract stage
	// (list extraction with site propagation plus detail extraction), and
	// bring the document index up to date for the changed pages. Candidates
	// fold into the per-concept collector as windows of hosts finish, filtered at fold
	// time to the affected set (retired IDs, changed pages' output, and IDs
	// absent from the store — members that entity resolution had merged
	// away). The store is not mutated between the supersede stage and the
	// upsert below, so filtering during extraction sees the same store state
	// the old post-extraction filter did.
	changedSet := make(map[string]bool, len(changed))
	for _, p := range changed {
		changedSet[p.URL] = true
	}
	cg := newConceptGroups(func(c *extract.Candidate, id string) bool {
		if _, wasRetired := retired[id]; wasRetired || changedSet[c.SourceURL] {
			return true
		}
		// The candidate re-asserts an untouched record from an unchanged
		// page: nothing to fold.
		_, err := woc.Records.View(id)
		return err != nil
	})
	if woc.memo == nil {
		// A streamed build kept no memos; maintenance keeps both from here.
		woc.memo, woc.links = newExtractMemo(), linkMemo{}
	}
	b.stage(ctx, "extract", func(sctx context.Context) {
		// The changed pages' hosts are all among the re-extracted ones, so
		// the page tasks that re-analyse them also re-index them.
		feed := feedDocIndex(woc.DocIndex, changedSet)
		est := b.extractHosts(woc, hosts, cg, feed)
		feed.join(sctx)
		stats.PagesAnalyzed, stats.PagesReplayed = est.pagesAnalyzed, est.pagesReplayed
		stats.HostsReinduced = est.hostsReinduced
	})

	var linkDirty bool
	b.stage(ctx, "upsert", func(context.Context) {
		linkDirty = b.applyCandidates(woc, cg, retired, stats)
	})

	// Re-run semantic linking (§5.4). When no link-concept record changed,
	// only changed pages that ended the pass unassociated need a linking
	// attempt. When one did, every linkable page is re-scored: the text
	// matcher ranks against record content, so a rebuilt record can win or
	// lose a page it never touched.
	b.stage(ctx, "relink", func(context.Context) {
		linked, unlinked, _ := b.relinkPass(woc, changed, linkDirty)
		stats.PagesRelinked = linked + unlinked
	})

	// Classify retirement outcomes now that rebuild and relink have run:
	// records that came back were superseded in place, the rest are gone.
	stats.RecordsSuperseded, stats.RecordsDeleted = 0, 0
	for id := range retired {
		if _, err := woc.Records.View(id); err != nil {
			stats.RecordsDeleted++
		} else {
			stats.RecordsSuperseded++
		}
	}
	return stats, nil
}

// retireAffected walks the lineage of every changed page — its live
// associations, the ledger stashed when it went gone, and its deterministic
// review record — and retires each downstream record: the record is deleted
// from the store and record index and its associations severed, to be
// rebuilt from a fresh extraction over its source sites. Retirement is the
// delta analogue of "these records never existed": the rebuild then
// reproduces exactly what a from-scratch build over the new corpus stores,
// including value provenance and dedupe order, which in-place value
// stripping cannot (a stripped value may have been co-asserted by an
// unchanged sibling page whose assertion the dedupe folded away).
//
// It returns the retired records and the set of hosts whose sites must
// re-extract: every host that fed a retired record, plus the changed pages'
// own hosts. A feeding host is one with a stored page among the record's
// associations or value sources, read off the URL alone: the walk reads and
// parses no page. A host whose only such page is stored but unreadable is
// therefore re-extracted too, which is harmless — re-extraction skips pages
// it cannot read.
func (b *Builder) retireAffected(woc *WebOfConcepts, changed []*webgraph.Page, stats *RefreshStats) (map[string]*lrec.Record, map[string]bool) {
	retired := make(map[string]*lrec.Record)
	reviewPage := make(map[string]string)
	var order []string
	for _, p := range changed {
		u := p.URL
		ids := append([]string(nil), woc.Assoc[u]...)
		// A page resurrecting after a gone pass has empty live associations;
		// the ledger stashed at removal still names the records it fed.
		ledger := woc.goneAssoc[u]
		for _, id := range ledger {
			ids = appendUnique(ids, id)
		}
		delete(woc.goneAssoc, u)
		// Review records are linked from the page, not to it: Assoc[u] names
		// the review's subject. The review itself has a deterministic ID.
		revID := "review:" + textproc.NormalizeKey(u)
		if _, err := woc.Records.Get(revID); err == nil {
			ids = appendUnique(ids, revID)
			reviewPage[revID] = u
		}
		for _, id := range ids {
			if _, done := retired[id]; done {
				continue
			}
			rec, err := woc.Records.Get(id)
			if err != nil {
				continue
			}
			// An association without a contributed value (a review page's
			// subject, a homepage link harvested elsewhere) does not make the
			// record stale: its content is independent of this page. The
			// ledger holds only records the page did contribute to.
			if id != revID && !sourcedFrom(rec, u) && !slices.Contains(ledger, id) {
				continue
			}
			retired[id] = rec
			order = append(order, id)
		}
	}
	sort.Strings(order)

	hosts := make(map[string]bool)
	for _, id := range order {
		rec := retired[id]
		for _, src := range woc.RevAssoc[id] {
			if woc.Pages.Has(src) {
				hosts[webgraph.HostOf(src)] = true
			}
		}
		// Value sources whose association was folded away by dedupe still
		// need their site re-extracted; walk provenance directly too.
		for _, k := range rec.Keys() {
			for _, v := range rec.All(k) {
				if u := v.Prov.SourceURL; woc.Pages.Has(u) {
					hosts[webgraph.HostOf(u)] = true
				}
			}
		}
		woc.Records.Delete(id) //nolint:errcheck // degraded store: rebuild re-puts
		woc.RecIndex.Remove(id)
		for _, src := range woc.RevAssoc[id] {
			removeAssoc(woc.Assoc, src, id)
		}
		delete(woc.RevAssoc, id)
		if rec.Concept == "review" {
			// The review's page links to the subject, not to the review;
			// sever that edge so the relink stage sees a clean slate.
			if u := reviewPage[id]; u != "" {
				for _, sid := range woc.Assoc[u] {
					removeAssoc(woc.RevAssoc, sid, u)
				}
				delete(woc.Assoc, u)
			}
		}
	}
	for _, p := range changed {
		hosts[p.Host] = true
	}
	return retired, hosts
}

// sourcedFrom reports whether any value of r names url as its source.
func sourcedFrom(r *lrec.Record, url string) bool {
	for _, k := range r.Keys() {
		for _, v := range r.All(k) {
			if v.Prov.SourceURL == url {
				return true
			}
		}
	}
	return false
}

// applyCandidates folds the delta extraction's collector back into the
// store, mirroring the build's resolveAndStore: candidates were filtered to
// the affected set and pre-merged by synthesized ID at fold time, and are
// now clustered per concept by the same collective matcher, with the
// cluster representatives upserted in sorted order. It reports whether any
// record of a link concept was touched, which forces a global relink pass.
func (b *Builder) applyCandidates(woc *WebOfConcepts, cg *conceptGroups, retired map[string]*lrec.Record, stats *RefreshStats) bool {
	linkable := make(map[string]bool, len(b.Cfg.LinkConcepts))
	for _, c := range b.Cfg.LinkConcepts {
		linkable[c] = true
	}
	linkDirty := false
	for _, rec := range retired {
		if linkable[rec.Concept] {
			linkDirty = true
		}
	}

	for _, concept := range cg.concepts() {
		toStore, _ := b.resolveConcept(woc, cg, concept)
		// The table upsert scans for merge targets lives for this concept
		// of this pass only: filled from the store here, kept in step with
		// it by every upsert below.
		var targets *match.Table
		if m := b.Cfg.Matchers[concept]; m != nil && len(toStore) > 0 {
			targets = storedProfiles(woc.Records, m, concept)
		}
		for _, rec := range toStore {
			created, updated := b.upsert(woc, rec, targets)
			if _, wasRetired := retired[rec.ID]; wasRetired && created == 1 {
				// A rebuilt record is an update of the retired one, not a
				// new entity.
				created, updated = 0, 1
			}
			stats.RecordsCreated += created
			stats.RecordsUpdated += updated
			if created+updated > 0 && linkable[concept] {
				linkDirty = true
			}
		}
		if targets != nil {
			stats.UpsertCompared += targets.Compared
			stats.UpsertPruned += targets.Pruned
		}
	}
	return linkDirty
}

// relinkPass is semantic linking (§5.4), the one place it runs: free-text
// pages that extraction left unassociated but whose main text matches a
// stored record of a link concept get a review record linked to their
// subject. It is the build's link stage and a maintenance pass's relink
// stage.
//
// In global mode every linkable page is scored. A build runs it global on a
// store that holds no review yet, so it scores exactly the unassociated
// pages. A maintenance pass runs it global when a link-concept record
// changed — the text matcher ranks record content, so a rebuilt record can
// win or lose pages the pass never fetched — and otherwise narrow: only
// changed pages with no surviving association, free-text pages whose new
// content may mention a (possibly different) subject. Pages whose link
// outcome is unchanged are left untouched.
//
// The pending pages and the matcher are fixed before scoring starts: the
// pending set is read from Assoc before any apply, and the matcher's read
// path is goroutine-safe, so pages are scored across the worker pool. A
// page is scored by its link features: from the link-feature memo while the
// page store's hash still matches (see linkMemo), else from the parse the
// refetch stage made of a changed page, else read and parsed through the
// page store. The memo is pruned and refilled after scoring. All mutation —
// Assoc/RevAssoc edges, review deletes and Puts with their NextSeq stamps —
// happens in one apply phase that walks the pending pages in sorted-URL
// order, keeping seq assignment deterministic; a page's outcome depends only
// on associations and reviews from before the pass, never on another page's
// link.
//
// It returns the pages given a new link, the pages whose stale review it
// deleted, and the review Puts that succeeded.
func (b *Builder) relinkPass(woc *WebOfConcepts, changed []*webgraph.Page, global bool) (linked, unlinked, reviews int) {
	if len(b.Cfg.LinkConcepts) == 0 {
		return
	}
	threshold := b.Cfg.LinkThreshold
	if threshold == 0 {
		threshold = 0.35
	}
	revIDOf := func(u string) string { return "review:" + textproc.NormalizeKey(u) }
	// extractionAssociated reports whether any of the page's associations is
	// justified by extraction — the page contributed a value to the record,
	// or is the record's homepage. The build links only pages the extract
	// stage left unassociated, so such a page is not linkable; a review it
	// holds from an earlier corpus state is stale.
	extractionAssociated := func(u string) bool {
		for _, id := range woc.Assoc[u] {
			rec, err := woc.Records.Get(id)
			if err != nil {
				continue
			}
			if sourcedFrom(rec, u) || rec.Get("homepage") == u {
				return true
			}
		}
		return false
	}
	// unlink severs the page→subject edge a review created, unless
	// extraction independently justifies the same edge (the rebuilt record
	// may now hold a value sourced from the page).
	unlink := func(u, about string) {
		if rec, err := woc.Records.Get(about); err == nil {
			if sourcedFrom(rec, u) || rec.Get("homepage") == u {
				return
			}
		}
		removeAssoc(woc.Assoc, u, about)
		removeAssoc(woc.RevAssoc, about, u)
	}

	var pending []string
	if global {
		// Linkable pages: unassociated ones (the build's link candidates)
		// plus pages holding a review record, which may need to move — or
		// go, if the page's rebuilt records absorbed it into extraction.
		for _, u := range woc.Pages.URLs() {
			if len(woc.Assoc[u]) == 0 {
				pending = append(pending, u)
				continue
			}
			if _, err := woc.Records.View(revIDOf(u)); err == nil {
				pending = append(pending, u)
			}
		}
	} else {
		for _, p := range changed {
			if len(woc.Assoc[p.URL]) == 0 {
				pending = append(pending, p.URL)
			}
		}
		sort.Strings(pending)
	}
	if len(pending) == 0 {
		return
	}
	var corpus []*lrec.Record
	for _, c := range b.Cfg.LinkConcepts {
		corpus = append(corpus, woc.Records.ByConcept(c)...)
	}
	if len(corpus) == 0 {
		return
	}
	tm := match.NewTextMatcher(corpus)

	fresh := make(map[string]*webgraph.Page, len(changed))
	for _, p := range changed {
		fresh[p.URL] = p
	}
	type hit struct {
		recID   string
		snippet string
	}
	hits := make([]*hit, len(pending))
	keep := woc.links != nil
	var feats []linkFeatures // by pending page, when the memo is kept
	var read []bool          // features known: a memo hit or the page read
	if keep {
		feats, read = make([]linkFeatures, len(pending)), make([]bool, len(pending))
	}
	parallelEach(len(pending), b.workers(), func(i int) {
		f, ok := woc.links.lookup(woc.Pages, pending[i])
		if !ok {
			p := fresh[pending[i]]
			if p == nil {
				var err error
				if p, err = woc.Pages.Get(pending[i]); err != nil {
					return
				}
			}
			f = newLinkFeatures(p, keep)
		}
		if keep {
			feats[i], read[i] = f, true
		}
		if f.short {
			return
		}
		best, ok := tm.BestTokens(f.tokens, threshold)
		if !ok {
			return
		}
		hits[i] = &hit{recID: best.ID, snippet: f.snippet}
	})
	if keep {
		if global {
			clear(woc.links)
		} else {
			for _, p := range changed {
				delete(woc.links, p.URL)
			}
		}
		for i, u := range pending {
			if read[i] {
				woc.links[u] = feats[i]
			}
		}
	}

	for i, u := range pending {
		h := hits[i]
		revID := revIDOf(u)
		old, errOld := woc.Records.Get(revID)
		if extractionAssociated(u) || h == nil {
			// No subject any more, or the rebuilt records absorbed this page
			// into extraction, so it is no longer a link candidate: any
			// review it held is stale. Unlink, deleting it.
			if errOld == nil {
				about := old.Get("about")
				if woc.Records.Delete(revID) == nil {
					unlink(u, about)
					unlinked++
				}
			}
			continue
		}
		if errOld == nil && old.Get("about") == h.recID && old.Get("text") == h.snippet {
			// Same subject, same snippet: the review stands, but re-assert
			// the link edges — retiring the subject severed them.
			woc.Assoc[u] = appendUnique(woc.Assoc[u], h.recID)
			woc.RevAssoc[h.recID] = appendUnique(woc.RevAssoc[h.recID], u)
			continue
		}
		if errOld == nil {
			unlink(u, old.Get("about"))
		}
		linked++
		woc.Assoc[u] = appendUnique(woc.Assoc[u], h.recID)
		woc.RevAssoc[h.recID] = appendUnique(woc.RevAssoc[h.recID], u)
		rev := lrec.NewRecord(revID, "review")
		seq := woc.Records.NextSeq()
		add := func(key, val string, conf float64) {
			rev.Add(key, lrec.AttrValue{Value: val, Confidence: conf,
				Prov: lrec.Provenance{SourceURL: u, Operators: []string{"textmatch"}, Seq: seq}})
		}
		add("text", h.snippet, 0.9)
		add("about", h.recID, 0.8)
		add("source", u, 1)
		if woc.Records.Put(rev) == nil { // degraded store: link maps still converge
			reviews++
		}
	}
	return linked, unlinked, reviews
}

// storedProfiles profiles every stored record of the concept for m. Scan
// lends the store's own records, so nothing is cloned.
func storedProfiles(store *lrec.Store, m *match.Matcher, concept string) *match.Table {
	t := m.NewTable()
	store.Scan(func(r *lrec.Record) bool {
		if r.Concept == concept {
			t.Put(r)
		}
		return true
	})
	return t
}

// upsert folds one resolved record into the store: into the stored record
// with its ID, else into the stored record entity matching finds, else as a
// new record. targets holds the profiles of the concept's stored records
// (nil when the concept has no matcher) and is updated with what lands.
//
// The match is the stored record scoring highest against rec among those
// reaching the matcher's Upper, the lowest ID among equal scores — pinned so
// that delta refresh is deterministic and independent of how later records
// were numbered.
func (b *Builder) upsert(woc *WebOfConcepts, rec *lrec.Record, targets *match.Table) (created, updated int) {
	exist, err := woc.Records.Get(rec.ID)
	if err != nil && targets != nil {
		if id, ok := targets.Best(rec); ok {
			if exist, err = woc.Records.Get(id); err != nil {
				return 0, 0
			}
		}
	}
	if err == nil {
		exist.Merge(rec) //nolint:errcheck // same concept
		rec, updated = exist, 1
	} else {
		created = 1
	}
	if woc.Records.Put(rec) != nil {
		return 0, 0
	}
	if targets != nil {
		targets.Put(rec)
	}
	b.associate(woc, rec)
	b.indexRecord(woc, rec)
	return created, updated
}

func removeString(list []string, v string) []string {
	out := list[:0]
	for _, x := range list {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// removeAssoc drops v from m[k], deleting the key when its list empties so
// a churned association map compares equal to a freshly built one (which
// never holds empty entries).
func removeAssoc(m map[string][]string, k, v string) {
	out := removeString(m[k], v)
	if len(out) == 0 {
		delete(m, k)
	} else {
		m[k] = out
	}
}

func (b *Builder) indexRecord(woc *WebOfConcepts, r *lrec.Record) {
	woc.RecIndex.Add(recordDocument(r))
}

// ConflictResolution names the policy Reconcile applies to over-full
// attributes.
type ConflictResolution int

// Policies.
const (
	// PreferSupport keeps the values backed by the most distinct sources,
	// breaking ties by recency then confidence.
	PreferSupport ConflictResolution = iota
	// PreferRecent keeps the most recently extracted values.
	PreferRecent
)

// Reconcile enforces the registry's multiplicity constraints on stored
// records of the concept: attributes holding more values than allowed are
// trimmed per the policy, and a trimmed record is re-indexed and unlinked
// from pages only its trimmed values came from. It returns the number of
// records changed — the §7.3 "extracted information will often be
// inconsistent and will need to be reconciled to meet integrity
// constraints".
func (woc *WebOfConcepts) Reconcile(concept string, policy ConflictResolution) int {
	spec, ok := woc.Registry.Lookup(concept)
	if !ok {
		return 0
	}
	changed := 0
	for _, r := range woc.Records.ByConcept(concept) {
		// Trim a clone and adopt it only after the put succeeds: on a
		// degraded store the write fails, and the record every caller (and
		// this loop) observes must keep matching what the store holds —
		// trimming in place first would diverge memory from disk.
		var trimmed *lrec.Record
		for _, as := range spec.Attrs {
			if as.MaxValues <= 0 {
				continue
			}
			vals := r.All(as.Key)
			if len(vals) <= as.MaxValues {
				continue
			}
			if trimmed == nil {
				trimmed = r.Clone()
			}
			trimmed.Attrs[as.Key] = rankValues(vals, policy)[:as.MaxValues]
		}
		if trimmed != nil {
			if woc.Records.Put(trimmed) == nil {
				changed++
				woc.unassociateTrimmed(r, trimmed)
				woc.RecIndex.Add(recordDocument(trimmed))
			}
		}
	}
	if changed > 0 {
		woc.BumpEpoch()
	}
	return changed
}

// unassociateTrimmed drops the page → record edges only trimmed values
// justified — a value's source or the homepage — leaving those the record
// still implies, which is what a reopened system derives (reassociate). A
// review's page holds no extracted value (the link stage links only pages
// extraction left unassociated), so its edge to its subject stays.
func (woc *WebOfConcepts) unassociateTrimmed(before, after *lrec.Record) {
	justified := func(r *lrec.Record, u string) bool { return sourcedFrom(r, u) || r.Get("homepage") == u }
	for _, u := range slices.Clone(woc.RevAssoc[before.ID]) {
		if justified(before, u) && !justified(after, u) {
			removeAssoc(woc.Assoc, u, before.ID)
			removeAssoc(woc.RevAssoc, before.ID, u)
		}
	}
}

// rankValues orders attribute values best-first per the policy.
func rankValues(vals []lrec.AttrValue, policy ConflictResolution) []lrec.AttrValue {
	out := append([]lrec.AttrValue(nil), vals...)
	sort.SliceStable(out, func(i, j int) bool {
		switch policy {
		case PreferRecent:
			if out[i].Prov.Seq != out[j].Prov.Seq {
				return out[i].Prov.Seq > out[j].Prov.Seq
			}
		default:
			if out[i].Support != out[j].Support {
				return out[i].Support > out[j].Support
			}
			if out[i].Prov.Seq != out[j].Prov.Seq {
				return out[i].Prov.Seq > out[j].Prov.Seq
			}
		}
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// Lineage returns the human-readable provenance chains for every value of a
// record — the §7.3 "explanations to user queries".
func (woc *WebOfConcepts) Lineage(id string) ([]string, error) {
	r, err := woc.Records.Get(id)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, k := range r.Keys() {
		for _, v := range r.All(k) {
			out = append(out, k+"="+v.Value+" <- "+v.Prov.String())
		}
	}
	return out, nil
}

// LiveValue re-reads a volatile attribute from its source document (§7.3:
// "some concepts, like stock tickers and city temperatures, are so dynamic
// that they always need to be tied to their underlying source documents").
// It follows the stored value's provenance to the page, refetches it, and
// re-extracts just that attribute. The store is left untouched; callers who
// want to persist the fresh value can Put it.
func (b *Builder) LiveValue(woc *WebOfConcepts, recordID, key string) (string, error) {
	rec, err := woc.Records.Get(recordID)
	if err != nil {
		return "", err
	}
	best, ok := rec.Best(key)
	if !ok || best.Prov.SourceURL == "" {
		return "", fmt.Errorf("core: no sourced value for %s.%s", recordID, key)
	}
	html, err := b.Fetcher.Fetch(best.Prov.SourceURL)
	if err != nil {
		return "", fmt.Errorf("core: live fetch %s: %w", best.Prov.SourceURL, err)
	}
	page := webgraph.NewPage(best.Prov.SourceURL, html)
	text := pageMainText(page)
	for _, d := range b.Cfg.Domains {
		if d.Concept != rec.Concept {
			continue
		}
		for _, r := range d.Recognizers {
			if r.Key != key {
				continue
			}
			if v, okm := r.Match(text); okm {
				return v, nil
			}
		}
	}
	return "", fmt.Errorf("core: attribute %q not found live on %s", key, best.Prov.SourceURL)
}
