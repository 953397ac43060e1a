package index

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// checkRanked fails unless rs is in (score desc, ID asc) order with no ID
// twice — what any ranked query returns, whatever writes it raced.
func checkRanked(rs []Result) error {
	seen := make(map[string]bool, len(rs))
	for i, r := range rs {
		if seen[r.ID] {
			return fmt.Errorf("rank %d: %s returned twice", i, r.ID)
		}
		seen[r.ID] = true
		if i > 0 {
			p := rs[i-1]
			if p.Score < r.Score || p.Score == r.Score && p.ID >= r.ID {
				return fmt.Errorf("rank %d: %s/%v after %s/%v", i, r.ID, r.Score, p.ID, p.Score)
			}
		}
	}
	return nil
}

// TestSearchRacesWriters: seeded searches run while one writer adds,
// re-adds, removes and compacts. Every ranking a reader sees is ordered and
// duplicate-free — the ID ranks are extended after adds and rebuilt after
// compactions by the queries that follow them — and once the writer stops
// every query answers what the retained reference answers, bit for bit.
// Under -race in make querytest. The index is one partition: the subtest
// keeps the name shards=1.
func TestSearchRacesWriters(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		const n, writes, readers = 300, 3000, 3
		rng := rand.New(rand.NewSource(1))
		queries := propQueries(rng)
		s := New()
		id := func(i int) string { return fmt.Sprintf("doc-%03d", i) }
		for i := 0; i < n; i++ {
			s.Add(propDoc(rng, id(i)))
		}
		docs := make([]Document, writes)
		for i := range docs {
			docs[i] = propDoc(rng, id(rng.Intn(n)))
		}

		var done atomic.Bool
		var searches atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, readers)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				ks := []int{0, 1, 3, 10}
				for !done.Load() {
					q, k := queries[rng.Intn(len(queries))], ks[rng.Intn(len(ks))]
					rs := s.Search(q, k)
					if err := checkRanked(rs); err != nil {
						errs <- fmt.Errorf("q=%q k=%d: %v", q, k, err)
						return
					}
					if k > 0 && len(rs) > k {
						errs <- fmt.Errorf("q=%q k=%d: %d results", q, k, len(rs))
						return
					}
					searches.Add(1)
				}
			}(int64(10 + r))
		}
		for i, d := range docs {
			switch i % 10 {
			case 0, 1, 2:
				s.Remove(d.ID)
			case 3:
				s.CompactTombstones()
			default:
				s.Add(d) // a re-add, or the revival of a removed ID
			}
		}
		done.Store(true)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if searches.Load() == 0 {
			t.Fatal("no search ran during the writes")
		}
		checkKernel(t, s, queries, "after racing writes")
	})
}
