package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"conceptweb/internal/serving"
	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

// altK is how many substitutes an Alternatives operation asks for.
const altK = 10

// hotKeys is the working set of serve.hot in each key space. The first hotKeys
// queries on two cached endpoints and the first hotKeys records on two more
// are 2048 cache entries, half of what the default cache holds.
const hotKeys = 512

// digestKeys is how many vocabulary entries the answers digest covers.
const digestKeys = 1024

// clients is the number of closed-loop client goroutines: min(nproc, 4).
func clients() int { return min(runtime.NumCPU(), 4) }

// served is a system built over a corpus and wired the way cmd/wocserve wires
// it: woc.Build, then a serving.Layer with every option at its default.
type served struct {
	c      *corpus
	sys    *woc.System
	layer  *serving.Layer
	src    *timedSource // non-nil in a traced run
	vocab  []query
	recIDs []string
	buildS float64 // wall of woc.Build alone
}

// serveSystem sets one system up. storeDir, when set, makes the record store
// durable, so that maintenance appends to a real write-ahead log.
func serveSystem(e *env, storeDir string) (*served, error) {
	s := &served{c: newCorpus(e.pages, e.seed)}
	opts := []woc.Option{woc.WithLocalDomain(s.c.world.Cities(), webgen.Cuisines())}
	if storeDir != "" {
		opts = append(opts, woc.WithStoreDir(storeDir))
	}
	t0 := time.Now()
	sys, err := woc.Build(s.c.Fetch, s.c.world.SeedURLs(), opts...)
	if err != nil {
		return nil, err
	}
	s.buildS = time.Since(t0).Seconds()
	s.sys = sys
	var src serving.Source = sys
	if e.tr != nil {
		s.src = &timedSource{Source: sys, tr: e.tr, active: make([]atomic.Pointer[activeOp], clients())}
		src = s.src
	}
	s.layer = serving.New(src, serving.Options{Metrics: sys.Metrics()})
	recs := sys.Records("restaurant")
	s.vocab = vocabulary(recs, e.seed)
	for _, r := range recs {
		s.recIDs = append(s.recIDs, r.ID)
	}
	return s, nil
}

// activeOp is the operation a client has in flight: what a source call is
// matched against to find the span that caused it.
type activeOp struct {
	kind uint8
	key  string
	k    int
	span int64
}

// timedSource is the benchmark-owned wrapper around the serving.Source the
// layer is given, present in traced runs only. The span of a wrapper call is
// the time below the serving layer (parser, engine, index, store); the span
// of the layer call minus it is the serving layer's self time.
type timedSource struct {
	serving.Source
	tr     *tracer
	active []atomic.Pointer[activeOp]
	ns     atomic.Int64 // total time inside the wrapped source
}

// timed records one source call as a child of the client operation that has
// the same kind and key in flight. The layer passes no context down, and
// with coalescing the call may run for another client's identical request.
func (t *timedSource) timed(kind uint8, key string, k int) func() {
	start := time.Now()
	return func() {
		end := time.Now()
		t.ns.Add(end.Sub(start).Nanoseconds())
		var parent int64
		for i := range t.active {
			if a := t.active[i].Load(); a != nil && a.kind == kind && a.key == key && a.k == k {
				parent = a.span
				break
			}
		}
		t.tr.record(t.tr.id(), parent, parent, "source."+opNames[kind], start, end)
	}
}

func (t *timedSource) Search(q string, k int) *woc.Page {
	defer t.timed(opSearch, q, k)()
	return t.Source.Search(q, k)
}

func (t *timedSource) ConceptSearch(q string, k int) []woc.Hit {
	defer t.timed(opConcept, q, k)()
	return t.Source.ConceptSearch(q, k)
}

func (t *timedSource) Aggregate(id string) (*woc.Aggregation, error) {
	defer t.timed(opAggregate, id, 0)()
	return t.Source.Aggregate(id)
}

func (t *timedSource) Alternatives(id string, k int) ([]woc.Suggestion, error) {
	defer t.timed(opAlternatives, id, k)()
	return t.Source.Alternatives(id, k)
}

func (t *timedSource) Record(id string) (woc.Record, error) {
	defer t.timed(opRecord, id, 0)()
	return t.Source.Record(id)
}

// call issues one operation through the serving layer and reports whether it
// was answered: no error, no shed, and a result that is not nil.
func (s *served) call(ctx context.Context, o op) bool {
	switch o.kind {
	case opSearch:
		q := s.vocab[o.idx]
		p, err := s.layer.Search(ctx, q.q, q.k)
		return err == nil && p != nil
	case opConcept:
		q := s.vocab[o.idx]
		_, err := s.layer.ConceptSearch(ctx, q.q, q.k)
		return err == nil
	case opAggregate:
		a, err := s.layer.Aggregate(ctx, s.recIDs[o.idx])
		return err == nil && a != nil
	case opAlternatives:
		_, err := s.layer.Alternatives(ctx, s.recIDs[o.idx], altK)
		return err == nil
	default:
		r, err := s.layer.Record(ctx, s.recIDs[o.idx])
		return err == nil && r.ID != ""
	}
}

// key is what the timed source sees for an operation.
func (s *served) key(o op) (string, int) {
	switch o.kind {
	case opSearch, opConcept:
		return s.vocab[o.idx].q, s.vocab[o.idx].k
	case opAlternatives:
		return s.recIDs[o.idx], altK
	default:
		return s.recIDs[o.idx], 0
	}
}

// clientTotals is what one closed-loop client measured.
type clientTotals struct {
	ops, failed int64
	layerNS     int64 // time inside serving.Layer calls
	search      hist  // latency of the Search operations only
}

// drive runs the clients over their schedules for d and returns their totals.
// Each client sends its next request when the previous one has completed, and
// goes on from pos, where an earlier drive left it.
func (s *served) drive(e *env, root int64, schedules [][]op, pos []int, d time.Duration) []*clientTotals {
	totals := make([]*clientTotals, len(schedules))
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(30*time.Second))
	defer cancel()
	for c := range schedules {
		totals[c] = &clientTotals{}
		wg.Add(1)
		go func(c int, ops []op, t *clientTotals) {
			defer wg.Done()
			for i := pos[c]; ; i++ {
				o := ops[i%len(ops)]
				var id int64
				if s.src != nil {
					id = e.tr.id()
					key, k := s.key(o)
					s.src.active[c].Store(&activeOp{kind: o.kind, key: key, k: k, span: id})
				}
				start := time.Now()
				ok := s.call(ctx, o)
				end := time.Now()
				ns := end.Sub(start).Nanoseconds()
				t.ops++
				if !ok {
					t.failed++
				}
				if o.kind == opSearch {
					t.search.add(ns)
				}
				if s.src != nil {
					t.layerNS += ns
					s.src.active[c].Store(nil)
					e.tr.record(id, root, id, "serving."+opNames[o.kind], start, end)
				}
				if !end.Before(deadline) {
					pos[c] = i + 1
					return
				}
			}
		}(c, schedules[c], totals[c])
	}
	wg.Wait()
	return totals
}

// counterSum adds up the system's counters whose names start with prefix.
func counterSum(sys *woc.System, prefix string) int64 {
	var n int64
	for name, v := range sys.Metrics().Snapshot().Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// answersDigest hashes query → top-10 URLs + box record ID over the first
// digestKeys vocabulary entries, asked through search. It also returns how many
// of the instance queries among them put their own record in the box.
func answersDigest(vocab []query, search func(q string, k int) *woc.Page) (digest string, instances, boxed int) {
	h := fnv.New64a()
	for _, q := range vocab[:min(digestKeys, len(vocab))] {
		p := search(q.q, q.k)
		fmt.Fprintf(h, "%s\x1f%d\x1f", q.q, q.k)
		if p == nil {
			continue
		}
		for i, d := range p.Results {
			if i == 10 {
				break
			}
			fmt.Fprintf(h, "%s\x1f", d.URL)
		}
		if p.Box != nil {
			fmt.Fprintf(h, "box:%s", p.Box.Record.ID)
		}
		if q.instance {
			instances++
			if p.Box != nil && p.Box.Record.ID == q.recID {
				boxed++
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), instances, boxed
}

// runServe is serve.cold and serve.hot: closed loop, min(nproc, 4) clients;
// work is operations completed per second over the whole mix and wait is the
// latency of the Search operations (the §5.1 concept-box query).
func runServe(e *env, hot bool) (*report, error) {
	rep := newReport()
	root := e.tr.id()
	runStart := time.Now()

	var s *served
	var err error
	if rep.e2e["setup_s"], err = e.setUp(root, func() (err error) {
		s, err = serveSystem(e, "")
		return err
	}, func() { s = nil }); err != nil {
		return nil, err
	}
	if need := 2 * serving.DefaultCacheSize; len(s.vocab) <= need {
		return nil, fmt.Errorf("vocabulary has %d keys, need more than %d (twice the cache) for a cold walk", len(s.vocab), need)
	}

	// A client that reaches the end of its schedule starts it again; by then
	// the cold walk has gone round every key space several times.
	n := clients()
	schedules := make([][]op, n)
	for c := range schedules {
		if hot {
			schedules[c] = zipfOps(1<<20, e.seed*131+int64(c), hotKeys, len(s.vocab), len(s.recIDs))
		} else {
			schedules[c] = cyclicOps(20*len(s.vocab), c, n, len(s.vocab), len(s.recIDs))
		}
	}
	warm := time.Second
	if e.quick {
		warm = 100 * time.Millisecond
	}
	if hot {
		// Fill the cache with the whole working set before anything is timed.
		ctx := context.Background()
		for i := 0; i < min(hotKeys, len(s.vocab)); i++ {
			s.call(ctx, op{opSearch, uint32(i)})
			s.call(ctx, op{opConcept, uint32(i)})
		}
		for i := 0; i < min(hotKeys, len(s.recIDs)); i++ {
			for _, k := range []uint8{opAggregate, opAlternatives, opRecord} {
				s.call(ctx, op{k, uint32(i)})
			}
		}
	}
	pos := make([]int, n)
	s.drive(e, root, schedules, pos, warm)

	hits0, miss0 := counterSum(s.sys, "serve.hit."), counterSum(s.sys, "serve.miss.")
	var srcNS0 int64
	if s.src != nil {
		srcNS0 = s.src.ns.Load()
	}
	t0 := time.Now()
	totals := s.drive(e, root, schedules, pos, time.Duration(e.seconds*float64(time.Second)))
	timed := time.Since(t0)
	var srcNS int64
	if s.src != nil {
		srcNS = s.src.ns.Load() - srcNS0
	}
	hits, misses := counterSum(s.sys, "serve.hit.")-hits0, counterSum(s.sys, "serve.miss.")-miss0

	var all clientTotals
	for _, t := range totals {
		all.ops += t.ops
		all.failed += t.failed
		all.layerNS += t.layerNS
		all.search.merge(&t.search)
	}
	rep.attempted, rep.failed = all.ops, all.failed
	rep.e2e["work_per_s"] = float64(all.ops-all.failed) / timed.Seconds()
	rep.e2e["wait_p50_us"] = all.search.quantile(0.5) / 1e3
	rep.layer[tailMetric] = all.search.quantile(0.99) / 1e3
	tail := tailPercentile(int(all.search.n))
	rep.info["search_samples"] = all.search.n
	rep.info["search_tail"] = fmt.Sprintf("p%g = %.3f us", tail*100, all.search.quantile(tail)/1e3)
	rep.info["clients"] = n
	rep.info["vocabulary"] = len(s.vocab)
	rep.info["cache_hits"], rep.info["cache_misses"] = hits, misses

	// The answers the layer gives must be the answers the system gives, and
	// instance queries must put their record in the concept box.
	direct, instances, boxed := answersDigest(s.vocab, s.sys.Search)
	ctx := context.Background()
	layered, _, _ := answersDigest(s.vocab, func(q string, k int) *woc.Page {
		p, err := s.layer.Search(ctx, q, k)
		if err != nil {
			return nil
		}
		return p
	})
	rep.info["answers_digest"] = direct
	rep.info["instance_box_share"] = float64(boxed) / float64(max(instances, 1))
	if direct != layered {
		rep.problemf("answers through the serving layer (%s) differ from the system's (%s)", layered, direct)
	}
	if instances == 0 || float64(boxed) < 0.85*float64(instances) {
		rep.problemf("only %d of %d instance queries put their record in the concept box", boxed, instances)
	}
	hitShare := float64(hits) / float64(max(hits+misses, 1))
	if hot && hitShare < 0.99 {
		rep.problemf("serve.hot hit share %.4f, want at least 0.99", hitShare)
	}
	if !hot && hits != 0 {
		rep.problemf("serve.cold had %d cache hits, want 0", hits)
	}
	e.tr.record(root, 0, root, "workload", runStart, time.Now())

	if e.tr != nil {
		rep.layer["serving.hit_share"] = hitShare
		rep.layer["serving.coalesced"] = float64(counterSum(s.sys, "serve.coalesced"))
		rep.layer["serving.shed"] = float64(counterSum(s.sys, "serve.shed"))
		rep.layer["serving.self_us"] = float64(all.layerNS-srcNS) / float64(all.ops) / 1e3
		rep.layer["search.compute_us"] = float64(srcNS) / float64(all.ops) / 1e3
		for k, v := range stageMillis(s.sys.BuildTrace()) {
			rep.layer["core.stage_ms."+k] = v
		}
		if err := runProbes(e, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
