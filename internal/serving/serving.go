// Package serving is the read-path layer between woc.System and HTTP
// servers: it makes the paper's §5 application surfaces (concept boxes,
// concept search, aggregation pages, recommendations) fast under the
// head-heavy traffic real concept corpora see, and well-behaved when demand
// exceeds capacity.
//
// Three mechanisms compose, in request order:
//
//  1. A sharded LRU+TTL result cache keyed by (endpoint, normalized
//     query/id, k, epoch). The epoch is the system's data generation,
//     bumped by maintenance passes, so one Refresh invalidates the whole
//     cache in O(1): new requests simply ask for new keys.
//  2. Singleflight coalescing: a stampede of identical cache misses runs
//     the computation once and shares the result.
//  3. Admission control: a bounded in-flight semaphore with a short wait
//     deadline. When every slot stays busy past the deadline, the request
//     is shed with ErrOverloaded (HTTP 503 + Retry-After upstream) instead
//     of queueing unboundedly.
//
// Everything registers in the system's obs registry: per-endpoint
// serve.hit.*/serve.miss.* counters, serve.cache.* size/eviction traffic,
// serve.coalesced, serve.shed, and serve.compute.* latency histograms.
package serving

import (
	"context"
	"strconv"
	"time"

	"conceptweb/internal/obs"
	"conceptweb/internal/textproc"
	"conceptweb/woc"
)

// Source is the read API the layer fronts. *woc.System implements it; tests
// substitute fakes to drive epochs and slow computations deterministically.
type Source interface {
	// Epoch is the data generation; it must advance whenever a maintenance
	// pass changes visible state (the cache-invalidation contract). A
	// woc.System composes it from the store's and both indexes' epochs (a
	// sum of monotonic counters), so a mutation anywhere advances it.
	Epoch() uint64
	Search(query string, k int) *woc.Page
	ConceptSearch(query string, k int) []woc.Hit
	Aggregate(id string) (*woc.Aggregation, error)
	Alternatives(id string, k int) ([]woc.Suggestion, error)
	Augmentations(id string, k int) ([]woc.Suggestion, error)
	Record(id string) (woc.Record, error)
	Lineage(id string) ([]string, error)
}

// Defaults for Options fields left zero, shared with wocserve's flag
// declarations so -help shows the real values.
const (
	DefaultCacheSize   = 4096
	DefaultCacheTTL    = time.Minute
	DefaultMaxInflight = 64
	DefaultAdmitWait   = 50 * time.Millisecond
)

// Options configures a Layer.
type Options struct {
	// CacheSize is the total result-cache capacity in entries, spread over
	// the shards; negative disables caching, zero means DefaultCacheSize.
	CacheSize int
	// CacheTTL bounds entry lifetime, so even without a maintenance epoch
	// bump a cached result cannot outlive the TTL; negative disables
	// expiry, zero means DefaultCacheTTL.
	CacheTTL time.Duration
	// MaxInflight bounds concurrently executing computations (cache hits
	// are not counted — they do no work worth bounding); negative removes
	// the bound, zero means DefaultMaxInflight.
	MaxInflight int
	// AdmitWait is how long a computation may wait for a free slot before
	// the request is shed; zero means DefaultAdmitWait.
	AdmitWait time.Duration
	// Metrics receives the layer's instruments; nil disables them (obs
	// instruments are nil-safe).
	Metrics *obs.Registry
	// TraceRing is how many recent request traces stay resolvable by ID;
	// SlowlogK is the per-endpoint slow-query retention. Zero means the
	// DefaultTraceRing/DefaultSlowlogK in slowlog.go.
	TraceRing int
	SlowlogK  int
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = DefaultCacheSize
	}
	if o.CacheTTL == 0 {
		o.CacheTTL = DefaultCacheTTL
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = DefaultMaxInflight
	}
	if o.AdmitWait == 0 {
		o.AdmitWait = DefaultAdmitWait
	}
	return o
}

// Layer is the serving layer over one Source. Safe for concurrent use.
type Layer struct {
	src    Source
	cache  *Cache
	flight flightGroup
	admit  *admission
	reg    *obs.Registry
	traces *TraceLog
}

// New builds a serving layer; zero Options fields take the defaults above.
func New(src Source, opts Options) *Layer {
	opts = opts.withDefaults()
	return &Layer{
		src:    src,
		cache:  NewCache(opts.CacheSize, opts.CacheTTL, opts.Metrics),
		admit:  newAdmission(opts.MaxInflight, opts.AdmitWait, opts.Metrics),
		reg:    opts.Metrics,
		traces: NewTraceLog(opts.TraceRing, opts.SlowlogK),
	}
}

// Traces returns the layer's bounded trace retention (recency ring +
// per-endpoint slow-query log). HTTP layers Record finished traces here and
// serve /debug/slowlog and /debug/trace from it.
func (l *Layer) Traces() *TraceLog { return l.traces }

// Epoch reports the source's current data generation.
func (l *Layer) Epoch() uint64 { return l.src.Epoch() }

// CacheLen reports live result-cache entries (stale epochs included until
// they age out).
func (l *Layer) CacheLen() int { return l.cache.Len() }

// sep separates cache-key fields; it cannot appear in normalized queries,
// record IDs, or decimal numbers, so distinct requests never collide.
const sep = "\x1f"

// do is the common read path: cache lookup keyed by the current epoch, then
// coalesced + admitted computation on miss. The epoch is read BEFORE the
// computation runs: if a refresh lands mid-flight the fresh result is stored
// under the pre-refresh key, which post-refresh requests never ask for — so
// a post-refresh request can never be served pre-refresh data.
func (l *Layer) do(ctx context.Context, endpoint, key string, tr *Trace, compute func() (any, error)) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	epoch := l.src.Epoch()
	// The composed cache key is NOT stored in the trace: storing it would
	// make the key concatenation escape to the heap and cost the untraced
	// hit path an allocation. Wrappers annotate the natural argument
	// (normalized query / record id) instead, which is already heap-resident.
	if tr != nil {
		tr.Epoch = epoch
	}
	ck := endpoint + sep + key + sep + strconv.FormatUint(epoch, 10)
	if v, ok := l.cache.Get(ck); ok {
		l.reg.Counter("serve.hit." + endpoint).Inc()
		tr.setDisposition(DispositionHit)
		return v, nil
	}
	l.reg.Counter("serve.miss." + endpoint).Inc()
	v, err, shared := l.flight.do(ck, func() (any, error) {
		// This closure runs on the leader's goroutine only, so it may
		// annotate the leader's trace (tr of the caller that created the
		// flight); followers annotate their own traces below.
		release, waited, aerr := l.admit.acquire(ctx)
		tr.addAdmissionWait(waited)
		if aerr != nil {
			return nil, aerr
		}
		defer release()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		stop := l.reg.Time("serve.compute." + endpoint)
		start := time.Now()
		v, err := compute()
		tr.setCompute(time.Since(start))
		stop()
		if err == nil {
			l.cache.Put(ck, v)
		}
		return v, err
	})
	if shared {
		l.reg.Counter("serve.coalesced").Inc()
	}
	switch {
	case err == ErrOverloaded:
		tr.setDisposition(DispositionShed)
	case shared:
		tr.setDisposition(DispositionCoalesced)
	default:
		tr.setDisposition(DispositionMiss)
	}
	return v, err
}

// Search answers a web query with concept-aware ranking, cached.
func (l *Layer) Search(ctx context.Context, query string, k int) (*woc.Page, error) {
	q := textproc.NormalizeQuery(query)
	tr := TraceFromContext(ctx)
	tr.setArg(q)
	v, err := l.do(ctx, "search", q+sep+strconv.Itoa(k), tr, func() (any, error) {
		return l.src.Search(q, k), nil
	})
	if err != nil {
		return nil, err
	}
	page := v.(*woc.Page)
	if page != nil {
		tr.SetResults(len(page.Results))
	}
	return page, nil
}

// ConceptSearch retrieves records answering the query, cached.
func (l *Layer) ConceptSearch(ctx context.Context, query string, k int) ([]woc.Hit, error) {
	q := textproc.NormalizeQuery(query)
	tr := TraceFromContext(ctx)
	tr.setArg(q)
	v, err := l.do(ctx, "concepts", q+sep+strconv.Itoa(k), tr, func() (any, error) {
		return l.src.ConceptSearch(q, k), nil
	})
	if err != nil {
		return nil, err
	}
	hits := v.([]woc.Hit)
	tr.SetResults(len(hits))
	return hits, nil
}

// Aggregate builds the aggregation page for a record, cached. Lookup errors
// (unknown id) are not cached.
func (l *Layer) Aggregate(ctx context.Context, id string) (*woc.Aggregation, error) {
	tr := TraceFromContext(ctx)
	tr.setArg(id)
	v, err := l.do(ctx, "aggregate", id, tr, func() (any, error) {
		return l.src.Aggregate(id)
	})
	if err != nil {
		return nil, err
	}
	return v.(*woc.Aggregation), nil
}

// Alternatives recommends substitutes for a record, cached.
func (l *Layer) Alternatives(ctx context.Context, id string, k int) ([]woc.Suggestion, error) {
	tr := TraceFromContext(ctx)
	tr.setArg(id)
	v, err := l.do(ctx, "alternatives", id+sep+strconv.Itoa(k), tr, func() (any, error) {
		return l.src.Alternatives(id, k)
	})
	if err != nil {
		return nil, err
	}
	recs := v.([]woc.Suggestion)
	tr.SetResults(len(recs))
	return recs, nil
}

// Augmentations recommends complements for a record, cached.
func (l *Layer) Augmentations(ctx context.Context, id string, k int) ([]woc.Suggestion, error) {
	tr := TraceFromContext(ctx)
	tr.setArg(id)
	v, err := l.do(ctx, "augmentations", id+sep+strconv.Itoa(k), tr, func() (any, error) {
		return l.src.Augmentations(id, k)
	})
	if err != nil {
		return nil, err
	}
	recs := v.([]woc.Suggestion)
	tr.SetResults(len(recs))
	return recs, nil
}

// Record fetches one record. Store point-lookups are too cheap to cache,
// but they admit through the same semaphore so overload behavior is uniform
// across endpoints.
func (l *Layer) Record(ctx context.Context, id string) (woc.Record, error) {
	if err := ctx.Err(); err != nil {
		return woc.Record{}, err
	}
	tr := TraceFromContext(ctx)
	tr.setArg(id)
	tr.setEpoch(l.src.Epoch())
	release, waited, err := l.admit.acquire(ctx)
	tr.addAdmissionWait(waited)
	if err != nil {
		if err == ErrOverloaded {
			tr.setDisposition(DispositionShed)
		}
		return woc.Record{}, err
	}
	defer release()
	return l.src.Record(id)
}

// Lineage explains a record's provenance; uncached, admitted.
func (l *Layer) Lineage(ctx context.Context, id string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := TraceFromContext(ctx)
	tr.setArg(id)
	tr.setEpoch(l.src.Epoch())
	release, waited, err := l.admit.acquire(ctx)
	tr.addAdmissionWait(waited)
	if err != nil {
		if err == ErrOverloaded {
			tr.setDisposition(DispositionShed)
		}
		return nil, err
	}
	defer release()
	lines, err := l.src.Lineage(id)
	tr.SetResults(len(lines))
	return lines, err
}
