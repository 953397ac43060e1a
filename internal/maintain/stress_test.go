package maintain

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conceptweb/internal/serving"
	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

// churnFetcher serves a generated world with a global content version (bump
// it and every page's hash changes on next fetch) plus a per-URL gone set.
type churnFetcher struct {
	w       *webgen.World
	version atomic.Int64

	mu   sync.Mutex
	gone map[string]bool
}

func (c *churnFetcher) fetch(u string) (string, error) {
	c.mu.Lock()
	gone := c.gone[u]
	c.mu.Unlock()
	if gone {
		return "", fmt.Errorf("gone: %s", u)
	}
	h, err := c.w.Fetch(u)
	if err != nil {
		return "", err
	}
	return h + fmt.Sprintf("<!-- v%d -->", c.version.Load()), nil
}

func (c *churnFetcher) setGone(u string, gone bool) {
	c.mu.Lock()
	if gone {
		c.gone[u] = true
	} else {
		delete(c.gone, u)
	}
	c.mu.Unlock()
}

// TestStressReadsUnderMaintenanceLoop is the zero-downtime proof for the
// continuous maintenance loop: readers hammer the serving layer (cache off,
// so every read reaches the engine) while the background loop sweeps the
// corpus through content changes, a page loss, and its resurrection. Run
// under -race. It asserts:
//
//   - the loop completes at least 3 full corpus sweeps,
//   - every read succeeds and observed epochs are monotone per reader,
//   - reads observe only complete epochs: when the epoch is stable around a
//     Search, every record ID the results cite must resolve,
//   - read p99 stays bounded — a maintenance pass may briefly block readers
//     (it holds the write seam), but never starves them.
func TestStressReadsUnderMaintenanceLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("churn stress is a long test")
	}
	gcfg := webgen.DefaultConfig()
	gcfg.Restaurants = 12
	gcfg.ReviewArticles = 4
	gcfg.TVArticles = 2
	w := webgen.Generate(gcfg)
	cf := &churnFetcher{w: w, gone: map[string]bool{}}
	sys, err := woc.Build(cf.fetch, w.SeedURLs(),
		woc.WithLocalDomain(w.Cities(), webgen.Cuisines()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	l := serving.New(sys, serving.Options{CacheSize: -1, MaxInflight: -1, Metrics: sys.Metrics()})
	ctx := context.Background()

	var goneURL string
	for _, r := range w.Restaurants {
		if r.Homepage != "" {
			u := strings.TrimSuffix(r.Homepage, "/") + "/"
			if contains(sys.PageURLs(), u) {
				goneURL = u
				break
			}
		}
	}
	if goneURL == "" {
		t.Fatal("no stored restaurant homepage to take offline")
	}

	var queries []string
	for _, r := range w.Restaurants {
		queries = append(queries, r.Name+" "+r.City, "best "+r.Cuisine+" "+r.City)
	}

	loop := NewLoop(sys, Options{
		Interval:    time.Millisecond,
		Batch:       32,
		GoneRetries: 100, // resurrection must always be discovered
		Metrics:     sys.Metrics(),
	})

	// The loop is the only caller of Refresh, so the refresh.* counters are
	// its passes' running totals.
	total := func(name string) int64 { return sys.Metrics().Counter("refresh." + name).Value() }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 4
	latCh := make(chan []time.Duration, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lats []time.Duration
			lastEpoch := uint64(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					latCh <- lats
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				e1 := l.Epoch()
				if e1 < lastEpoch {
					t.Errorf("reader %d: epoch went backwards %d -> %d", g, lastEpoch, e1)
				}
				lastEpoch = e1
				start := time.Now()
				page, err := l.Search(ctx, q, 8)
				lats = append(lats, time.Since(start))
				if err != nil {
					t.Errorf("search %q: %v", q, err)
					continue
				}
				// Complete-epoch invariant: if no maintenance pass committed
				// around this read, every record the results cite exists.
				var ids []string
				for _, d := range page.Results {
					ids = append(ids, d.RecordIDs...)
				}
				if page.Box != nil {
					ids = append(ids, page.Box.Record.ID)
				}
				consistent := true
				for _, id := range ids {
					if _, err := l.Record(ctx, id); errors.Is(err, woc.ErrNotFound) {
						consistent = false
					}
				}
				if e2 := l.Epoch(); e2 == e1 && !consistent {
					t.Errorf("epoch %d served results citing unresolvable records (query %q)", e1, q)
				}
			}
		}(g)
	}

	loop.Start()
	defer loop.Stop()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				close(stop)
				wg.Wait()
				t.Fatalf("timed out waiting for %s; loop status %+v", what, loop.Status())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Sweep 1 completes against the initial corpus; then churn: content
	// change everywhere plus the target page going dark.
	waitFor("sweep 1", func() bool { return loop.Status().Sweeps >= 1 })
	cf.version.Add(1)
	cf.setGone(goneURL, true)
	waitFor("gone page retired", func() bool { return total("pages.gone") >= 1 })

	// Sweep 2: the loop digests the change wave; then the page resurrects
	// with fresh content.
	waitFor("sweep 2", func() bool { return loop.Status().Sweeps >= 2 })
	cf.setGone(goneURL, false)
	cf.version.Add(1)
	waitFor("resurrection", func() bool { return contains(sys.PageURLs(), goneURL) })
	waitFor("sweep 3", func() bool { return loop.Status().Sweeps >= 3 })

	loop.Stop()
	close(stop)
	wg.Wait()

	st := loop.Status()
	if st.Sweeps < 3 {
		t.Fatalf("only %d full sweeps completed", st.Sweeps)
	}
	if total("pages.changed") == 0 || total("pages.gone") == 0 {
		t.Fatalf("loop saw no churn: %d pages changed, %d gone", total("pages.changed"), total("pages.gone"))
	}
	if total("records.superseded") == 0 {
		t.Fatal("change wave retired no records")
	}

	var lats []time.Duration
	for g := 0; g < readers; g++ {
		lats = append(lats, <-latCh...)
	}
	if len(lats) < 200 {
		t.Fatalf("too few reads for a meaningful p99: %d", len(lats))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	// A read can wait behind at most one maintenance pass (the facade's
	// write seam); the bound fails if passes starve readers outright.
	if p99 > 2*time.Second {
		t.Fatalf("read p99 = %v under maintenance churn (n=%d, max=%v)",
			p99, len(lats), lats[len(lats)-1])
	}
	t.Logf("churn stress: %d reads, p50=%v p99=%v, %d passes, %d pages changed",
		len(lats), lats[len(lats)/2], p99, st.Passes, total("pages.changed"))
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
