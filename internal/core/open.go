package core

import (
	"context"
	"errors"
	"fmt"

	"conceptweb/internal/lrec"
)

// Open reopens the web of concepts a build left in its stores — the durable
// record store in Cfg.StoreDir and the page store Cfg.PageStore — without
// extracting, resolving or linking again. Assoc and RevAssoc are derived
// from the records (reassociate), the document index is refilled from the
// pages (indexPages) and the record index by the build's own index stage.
// Like a BuildStream
// system, it has no extraction or link-feature memo until a maintenance
// pass touches a host.
func (b *Builder) Open() (*WebOfConcepts, *BuildStats, error) {
	if b.Cfg.StoreDir == "" || b.Cfg.PageStore == nil {
		return nil, nil, fmt.Errorf("core: open needs a record store directory and a page store")
	}
	woc, err := b.newWoc()
	if err != nil {
		return nil, nil, err
	}
	stats := &BuildStats{Workers: b.workers(), PagesFetched: woc.Pages.Len()}
	ctx, root := pipelineCtx("open")
	parsed := woc.Pages.Stats().Parses
	b.stage(ctx, "associate", func(context.Context) {
		stats.ReviewRecords = b.reassociate(woc)
		stats.RecordsStored, stats.PagesLinked = woc.Records.Len(), stats.ReviewRecords
	})
	b.stage(ctx, "index", func(sctx context.Context) {
		feed := feedDocIndex(woc.DocIndex, nil)
		b.indexPages(woc.Pages, feed)
		b.finishIndexes(sctx, woc, feed)
	})
	root.End()
	stats.Trace = root.Report()
	stats.Epoch = woc.BumpEpoch()
	stats.PageParses = int(woc.Pages.Stats().Parses - parsed)
	return woc, stats, nil
}

// reassociate fills Assoc and RevAssoc from the stored records, as the
// build's resolve stage (associate) and link stage (a review's page →
// subject edge) filled them, and returns the number of review records. A
// record copied into a fresh store (SaveRecords) carries stamps from the
// build's clock, so it also moves the store's clock past the largest.
func (b *Builder) reassociate(woc *WebOfConcepts) (reviews int) {
	var stamp uint64
	woc.Records.Scan(func(r *lrec.Record) bool {
		for _, k := range r.Keys() {
			for _, v := range r.All(k) {
				stamp = max(stamp, v.Prov.Seq)
			}
		}
		if r.Concept != "review" {
			b.associate(woc, r)
			return true
		}
		// A review record is linked from its page: the page is about the
		// review's subject (see relinkPass).
		u, about := r.Get("source"), r.Get("about")
		woc.Assoc[u] = appendUnique(woc.Assoc[u], about)
		woc.RevAssoc[about] = appendUnique(woc.RevAssoc[about], u)
		reviews++
		return true
	})
	if clock := woc.Records.AdvanceSeq(0); stamp > clock {
		woc.Records.AdvanceSeq(stamp - clock)
	}
	return reviews
}

// SaveRecords copies every record into a fresh durable store in dir,
// compacts it to a snapshot and closes it; Open reopens such a directory.
// The copy numbers versions anew, in scan order.
func (woc *WebOfConcepts) SaveRecords(dir string) error {
	durable, err := lrec.Open(dir, lrec.WithRegistry(woc.Registry))
	if err != nil {
		return err
	}
	woc.Records.Scan(func(r *lrec.Record) bool {
		err = durable.Put(r)
		return err == nil
	})
	if err == nil {
		err = durable.Compact()
	}
	return errors.Join(err, durable.Close())
}
