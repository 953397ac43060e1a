package serving

import (
	"context"
	"os"
	"sync"
	"testing"

	"conceptweb/internal/obs"
	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

var (
	benchOnce sync.Once
	benchSys  *woc.System
	benchQ    string
)

// TestMain closes the benchmarks' shared system when the package is done,
// which removes its temporary page store.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchSys != nil {
		benchSys.Close()
	}
	os.Exit(code)
}

func benchFixture(b *testing.B) (*woc.System, string) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := webgen.DefaultConfig()
		cfg.Restaurants = 30
		cfg.ReviewArticles = 10
		cfg.TVArticles = 2
		w := webgen.Generate(cfg)
		sys, err := woc.Build(w.Fetch, w.SeedURLs(),
			woc.WithLocalDomain(w.Cities(), webgen.Cuisines()))
		if err != nil {
			panic(err)
		}
		benchSys = sys
		benchQ = w.Restaurants[0].Name + " " + w.Restaurants[0].City
	})
	return benchSys, benchQ
}

// BenchmarkServeHot measures the cached read path: a repeated hot query
// served from the sharded result cache. Compare with BenchmarkServeCold —
// the ratio is the cache's whole-request speedup for head traffic.
func BenchmarkServeHot(b *testing.B) {
	sys, q := benchFixture(b)
	l := New(sys, Options{Metrics: obs.NewRegistry()})
	ctx := context.Background()
	if _, err := l.Search(ctx, q, 8); err != nil { // fill the entry
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Search(ctx, q, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeCold measures the uncached read path for the same query:
// what every request cost before the serving layer existed (and what a
// cache miss still costs).
func BenchmarkServeCold(b *testing.B) {
	sys, q := benchFixture(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sys.Search(q, 8)
		}
	})
}
