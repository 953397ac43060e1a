package serving

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

// buildVersionedSystem builds a small real system whose fetcher appends a
// version comment to every page, so bumping the version makes the next
// Refresh see every refreshed page as changed (content hash differs).
func buildVersionedSystem(t testing.TB) (*woc.System, *webgen.World, *atomic.Int64) {
	t.Helper()
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 20
	cfg.ReviewArticles = 5
	cfg.TVArticles = 2
	w := webgen.Generate(cfg)
	var version atomic.Int64
	fetch := func(u string) (string, error) {
		h, err := w.Fetch(u)
		if err != nil {
			return "", err
		}
		return h + fmt.Sprintf("<!-- v%d -->", version.Load()), nil
	}
	sys, err := woc.Build(fetch, w.SeedURLs(),
		woc.WithLocalDomain(w.Cities(), webgen.Cuisines()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys, w, &version
}

// TestConcurrentReadsDuringMaintenance is the read/maintenance race proof:
// it hammers Search/Aggregate/ConceptSearch/Alternatives/Record through the
// serving layer while Refresh and Reconcile mutate the system, under -race.
// Before the System read/maintenance lock existed, Refresh rewrote the
// association maps and indexes with readers in flight and this test raced;
// with the lock, every response is computed against a single epoch.
func TestConcurrentReadsDuringMaintenance(t *testing.T) {
	sys, w, version := buildVersionedSystem(t)
	// Cache off and admission unbounded: every request must reach the
	// engine, otherwise warm cache entries would absorb the reads and mask
	// the very race this test exists to catch.
	l := New(sys, Options{CacheSize: -1, MaxInflight: -1, Metrics: sys.Metrics()})
	ctx := context.Background()

	var queries []string
	for _, r := range w.Restaurants[:10] {
		queries = append(queries, r.Name+" "+r.City)
		queries = append(queries, "best "+r.Cuisine+" "+r.City)
	}
	var ids []string
	for _, rec := range sys.Records("restaurant") {
		ids = append(ids, rec.ID)
	}
	if len(ids) == 0 {
		t.Fatal("no restaurant records to read")
	}
	urls := w.SeedURLs()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 6
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				id := ids[(g+i)%len(ids)]
				switch i % 5 {
				case 0:
					if _, err := l.Search(ctx, q, 8); err != nil {
						t.Error(err)
					}
				case 1:
					l.Aggregate(ctx, id) //nolint:errcheck // unknown ids are fine
				case 2:
					if _, err := l.ConceptSearch(ctx, q, 8); err != nil {
						t.Error(err)
					}
				case 3:
					l.Alternatives(ctx, id, 5) //nolint:errcheck
				case 4:
					if _, err := l.Record(ctx, id); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}

	// Maintenance loop: each pass changes every page (version bump), so the
	// epoch must advance strictly; Reconcile interleaves for extra churn.
	lastEpoch := l.Epoch()
	for pass := 0; pass < 4; pass++ {
		version.Add(1)
		st, err := sys.Refresh(urls)
		if err != nil {
			t.Fatalf("refresh pass %d: %v", pass, err)
		}
		if st.PagesChanged == 0 {
			t.Fatalf("pass %d changed no pages; the versioned fetcher is broken", pass)
		}
		if st.Epoch <= lastEpoch {
			t.Fatalf("epoch did not advance: %d -> %d", lastEpoch, st.Epoch)
		}
		lastEpoch = st.Epoch
		sys.Reconcile("restaurant")
	}
	close(stop)
	wg.Wait()
}

// TestPostRefreshNeverServesStale pins the acceptance criterion directly: a
// request arriving after a state-changing Refresh must recompute, never
// serve a result cached before the refresh.
func TestPostRefreshNeverServesStale(t *testing.T) {
	sys, w, version := buildVersionedSystem(t)
	l := New(sys, Options{Metrics: sys.Metrics()})
	reg := sys.Metrics()
	ctx := context.Background()
	q := w.Restaurants[0].Name + " " + w.Restaurants[0].City

	if _, err := l.Search(ctx, q, 8); err != nil { // cold: compute + fill
		t.Fatal(err)
	}
	if _, err := l.Search(ctx, q, 8); err != nil { // warm: hit
		t.Fatal(err)
	}
	hitsBefore := reg.Counter("serve.hit.search").Value()
	missBefore := reg.Counter("serve.miss.search").Value()
	if hitsBefore == 0 {
		t.Fatal("warm request did not hit the cache")
	}

	epochBefore := l.Epoch()
	version.Add(1)
	st, err := sys.Refresh(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch <= epochBefore {
		t.Fatalf("refresh with changed pages must bump epoch (%d -> %d)", epochBefore, st.Epoch)
	}

	if _, err := l.Search(ctx, q, 8); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("serve.miss.search").Value(); got != missBefore+1 {
		t.Fatalf("post-refresh request was served from the pre-refresh cache (miss %d -> %d)",
			missBefore, got)
	}

	// An unchanged refresh (same version) keeps the cache warm.
	st, err = sys.Refresh(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesChanged != 0 {
		t.Fatalf("second refresh unexpectedly changed pages: %+v", st)
	}
	epochAfter := l.Epoch()
	if epochAfter != st.Epoch {
		t.Fatalf("epoch mismatch: %d vs %d", epochAfter, st.Epoch)
	}
	hits2 := reg.Counter("serve.hit.search").Value()
	if _, err := l.Search(ctx, q, 8); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("serve.hit.search").Value(); got != hits2+1 {
		t.Error("no-op refresh should keep the cache warm")
	}
}
