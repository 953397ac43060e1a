package search

import (
	"reflect"
	"testing"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
)

// shardedEngine builds the same small world as the shared fixture but with
// the store and indexes hash-partitioned.
func shardedEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 60
	cfg.Authors = 8
	cfg.Papers = 15
	cfg.ReviewArticles = 30
	cfg.TVArticles = 4
	w := webgen.Generate(cfg)
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	ccfg := core.StandardConfig(reg, w.Cities(), webgen.Cuisines())
	ccfg.Shards = shards
	b := &core.Builder{Fetcher: w, Cfg: ccfg}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { woc.Close() })
	woc.Reconcile("restaurant", core.PreferSupport)
	b.EnrichMenus(woc)
	return NewEngine(woc, NewParser(w.Cities(), webgen.Cuisines()))
}

// TestEngineShardInvariance: the full query engine — intent parsing, ranked
// concept retrieval, page search, aggregation — must answer identically over
// a partitioned store/index and an unpartitioned one. This is the
// scatter-gather contract observed from the top of the stack.
func TestEngineShardInvariance(t *testing.T) {
	flat, parted := shardedEngine(t, 1), shardedEngine(t, 8)
	queries := []string{
		"best mexican san jose",
		"golden dragon grill cupertino",
		"pizza cupertino",
		"sushi",
		"thai food",
	}
	for _, q := range queries {
		a, b := flat.ConceptSearch(q, nil, 8), parted.ConceptSearch(q, nil, 8)
		if len(a) != len(b) {
			t.Fatalf("ConceptSearch(%q): %d vs %d hits", q, len(a), len(b))
		}
		for i := range a {
			if a[i].Record.ID != b[i].Record.ID || a[i].Score != b[i].Score {
				t.Errorf("ConceptSearch(%q) hit %d diverges: %s@%v vs %s@%v",
					q, i, a[i].Record.ID, a[i].Score, b[i].Record.ID, b[i].Score)
			}
		}
		pa, pb := flat.Search(q, 10), parted.Search(q, 10)
		if !reflect.DeepEqual(pa, pb) {
			t.Errorf("Search(%q) page diverges between 1 and 8 shards", q)
		}
	}
	// Aggregations walk the store by ID; spot-check one per concept page.
	hits := flat.ConceptSearch("mexican", nil, 3)
	for _, h := range hits {
		ga, ea := flat.Aggregate(h.Record.ID)
		gb, eb := parted.Aggregate(h.Record.ID)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("Aggregate(%s) error mismatch: %v vs %v", h.Record.ID, ea, eb)
		}
		if ea == nil && !reflect.DeepEqual(ga, gb) {
			t.Errorf("Aggregate(%s) diverges between shard counts", h.Record.ID)
		}
	}
	if len(hits) == 0 {
		t.Log("no mexican hits; aggregate spot-check skipped")
	}
}
