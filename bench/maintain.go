package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"conceptweb/internal/maintain"
	"conceptweb/woc"
)

const (
	// passBatch is the cohort the loop re-checks per pass. It is larger than
	// the corpus, so every pass is a full sweep and finds whatever changed
	// since the last one, wherever it is. passEdits pages, drawn by the seed
	// from the whole corpus, are edited before each pass: with 45 % of the
	// pages on aggregator hosts every pass retires an aggregator's lineage,
	// which is what makes a pass expensive, so passes cost about the same on
	// every seed.
	passBatch = 4096
	passEdits = 16
	// readRate is the reader's schedule in searches per second, and readLimit
	// the latency, from a read's due time, within which it counts as answered
	// in time.
	readRate  = 100
	readLimit = 100 * time.Millisecond
)

// passStarts are when the timed passes start, as shares of the timed region.
// Two passes hold the write lock for about a third of a 12 s region: enough
// for the tail of the read latency to be the lock, while the median read
// still finds it free.
var passStarts = []float64{0.08, 0.54}

// refreshStages are the stages of core.Builder.Refresh; each has a
// refresh.<stage> histogram in the system's registry.
var refreshStages = []string{"refetch", "supersede", "extract", "upsert", "relink"}

// marker is a word no page of the corpus holds, different for every seed and
// pass, and made of letters only so that it stays one token.
func marker(seed int64, pass int) string {
	m := []byte("wocbench")
	for s := uint64(seed); ; s /= 26 {
		m = append(m, byte('a'+s%26))
		if s < 26 {
			break
		}
	}
	return string(append(m, 'q', byte('a'+pass)))
}

// readerStats is what the open-loop reader measured: the latency of every
// read from its due time, how late the reads were sent in total, and how many
// failed or were answered within readLimit of their due time.
type readerStats struct {
	latUS          []float64
	lateMS         float64
	failed, inTime int64
}

// runReader calls read(i) on a fixed schedule, read i being due i intervals
// after begin, until end, all on the calling goroutine. A read that cannot
// start when it is due, because the one before it has not ended, starts as
// soon as that one ends, and its latency still counts from its due time: a
// stall is charged to every read it delays, and no read is dropped.
func runReader(begin, end time.Time, interval time.Duration, read func(i int) bool) readerStats {
	var st readerStats
	for i := 0; ; i++ {
		due := begin.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return st
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		ok := read(i)
		done := time.Now()
		if !ok {
			st.failed++
		} else if done.Sub(due) <= readLimit {
			st.inTime++
		}
		st.latUS = append(st.latUS, float64(done.Sub(due).Nanoseconds())/1e3)
		st.lateMS += float64(sent.Sub(due).Nanoseconds()) / 1e6
	}
}

// runMaintain is maintain.churn: maintenance passes (closed loop, one at a
// time, on a schedule) beside an open-loop reader on one goroutine. Work is
// changed pages folded per second of RunPass wall; wait is the latency of a
// scheduled Search, timed from when it was due.
func runMaintain(e *env) (*report, error) {
	rep := newReport()
	root := e.tr.id()
	runStart := time.Now()

	var s *served
	var loop *maintain.Loop
	var storeDir string
	undo := func() {
		s.sys.Close()
		os.RemoveAll(storeDir)
		s, loop = nil, nil
	}
	var err error
	if rep.e2e["setup_s"], err = e.setUp(root, func() (err error) {
		if storeDir, err = e.tempDir("lrec"); err != nil {
			return err
		}
		if s, err = serveSystem(e, storeDir); err != nil {
			os.RemoveAll(storeDir)
			return err
		}
		loop = maintain.NewLoop(s.sys, maintain.Options{Batch: passBatch,
			ReconcileConcepts: []string{"restaurant"}, Metrics: s.sys.Metrics()})
		return nil
	}, undo); err != nil {
		return nil, err
	}
	defer undo()

	// In a traced run every fetch is a span under the pass in flight.
	var passSpan atomic.Int64
	if e.tr != nil {
		s.c.onFetch = func(start, end time.Time) {
			if id := passSpan.Load(); id != 0 {
				e.tr.record(e.tr.id(), id, id, "fetcher", start, end)
			}
		}
	}

	urls := s.sys.PageURLs() // sorted, so the shuffle depends on the seed alone
	rand.New(rand.NewSource(e.seed)).Shuffle(len(urls), func(i, j int) { urls[i], urls[j] = urls[j], urls[i] })
	starts := passStarts
	if e.quick {
		starts = starts[:1]
	}
	if len(urls) < len(starts)*passEdits || len(urls) > passBatch {
		return nil, fmt.Errorf("corpus has %d pages, need %d to %d", len(urls), len(starts)*passEdits, passBatch)
	}

	reg := s.sys.Metrics()
	stage0 := map[string]float64{}
	for _, st := range refreshStages {
		stage0[st] = reg.Histogram("refresh." + st).Sum()
	}
	wal0 := reg.Counter("lrec.wal.appends").Value()

	region := time.Duration(e.seconds * float64(time.Second))
	begin := time.Now()
	end := begin.Add(region)

	// Maintenance: before each pass the benchmark edits pages; the pass must
	// find exactly those changed.
	var passWalls []float64
	var passStats []woc.RefreshStats
	var edited int
	edits := make([][]string, len(starts))
	var passErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j, share := range starts {
			edits[j] = urls[j*passEdits : (j+1)*passEdits]
			for _, u := range edits[j] {
				s.c.edit(u, marker(e.seed, j))
			}
			edited += len(edits[j])
			// A pass that is late starts at once.
			time.Sleep(time.Until(begin.Add(time.Duration(share * float64(region)))))
			id := e.tr.id()
			passSpan.Store(id)
			t0 := time.Now()
			st, err := loop.RunPass()
			t1 := time.Now()
			passSpan.Store(0)
			e.tr.record(id, root, id, "maintain.RunPass", t0, t1)
			if err != nil {
				passErr = err
				return
			}
			passWalls = append(passWalls, t1.Sub(t0).Seconds())
			passStats = append(passStats, st)
		}
	}()

	// Reads: a fixed schedule on this goroutine, in the vocabulary's shuffled
	// order, so every read misses the cache.
	ctx, cancel := context.WithDeadline(context.Background(), end.Add(60*time.Second))
	defer cancel()
	reads := runReader(begin, end, time.Second/readRate, func(i int) bool {
		q := s.vocab[i%len(s.vocab)]
		id := e.tr.id()
		sent := time.Now()
		p, err := s.layer.Search(ctx, q.q, q.k)
		e.tr.record(id, root, id, "serving.search", sent, time.Now())
		return err == nil && p != nil
	})
	lat := reads.latUS
	wg.Wait()
	wall := time.Since(begin)
	if passErr != nil {
		return nil, fmt.Errorf("RunPass: %w", passErr)
	}
	var folded int
	for j, st := range passStats {
		folded += st.PagesChanged
		if st.PagesChecked != len(urls) || st.PagesChanged != len(edits[j]) {
			rep.problemf("pass %d checked %d pages and found %d changed, want %d and %d",
				j, st.PagesChecked, st.PagesChanged, len(urls), len(edits[j]))
		}
	}

	// Converged: a further sweep, with nothing edited since, changes nothing,
	// and each marker finds exactly the pages edited with it.
	st, err := loop.RunPass()
	if err != nil {
		return nil, fmt.Errorf("RunPass: %w", err)
	}
	if st.PagesChecked == 0 || st.PagesChanged != 0 {
		rep.problemf("sweep after the last edit checked %d pages and found %d changed, want 0 changed", st.PagesChecked, st.PagesChanged)
	}
	for j := range starts {
		want := map[string]bool{}
		for _, u := range edits[j] {
			want[u] = true
		}
		page := s.sys.Search(marker(e.seed, j), 2*len(edits[j]))
		got := 0
		for _, d := range page.Results {
			if want[d.URL] {
				got++
			}
		}
		if got != len(edits[j]) || len(page.Results) != got {
			rep.problemf("search for pass %d's marker found %d of its %d edited pages among %d results",
				j, got, len(edits[j]), len(page.Results))
		}
	}
	e.tr.record(root, 0, root, "workload", runStart, time.Now())

	var passTotal float64
	for _, w := range passWalls {
		passTotal += w
	}
	sort.Float64s(lat)
	rep.attempted = int64(len(lat) + edited)
	rep.failed = reads.failed + int64(edited-folded)
	rep.e2e["work_per_s"] = float64(folded) / passTotal
	rep.e2e["wait_p50_us"] = percentile(lat, 0.5)
	rep.layer[tailMetric] = percentile(lat, 0.99)
	rep.info["reads"] = len(lat)
	rep.info["read_tail"] = fmt.Sprintf("p%g = %.1f us", tailPercentile(len(lat))*100, percentile(lat, tailPercentile(len(lat))))
	rep.info["passes_s"] = fmt.Sprint(passWalls)
	readOK := float64(reads.inTime) / float64(len(lat))
	passVsRebuild := median(passWalls) / s.buildS
	rep.info["read_ok_share"], rep.info["pass_vs_rebuild"] = readOK, passVsRebuild

	if e.tr != nil {
		for _, stg := range refreshStages {
			rep.layer["core.refresh_stage_ms."+stg] = (reg.Histogram("refresh."+stg).Sum() - stage0[stg]) * 1e3
		}
		rep.layer["maintain.pass_s"] = median(passWalls)
		rep.layer["maintain.lock_held_share"] = passTotal / wall.Seconds()
		rep.layer["maintain.read_ok_share"] = readOK
		rep.layer["maintain.reader_late_ms"] = reads.lateMS / float64(len(lat))
		rep.layer["maintain.pass_vs_rebuild"] = passVsRebuild
		rep.layer["lrec.wal_appends"] = float64(reg.Counter("lrec.wal.appends").Value() - wal0)
		rep.layer["refresh.records_superseded"] = float64(reg.Counter("refresh.records.superseded").Value())
		rep.layer["refresh.pages_relinked"] = float64(reg.Counter("refresh.pages.relinked").Value())
		for k, v := range stageMillis(s.sys.BuildTrace()) {
			rep.layer["core.stage_ms."+k] = v
		}
		if err := runProbes(e, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
