package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel construction (§7.1): the paper's pipeline is a web-scale batch
// system, and its three dominant post-crawl stages — extraction, semantic
// linking, and indexing — are embarrassingly parallel over pages (two passes
// around a per-site barrier, see extractPages), pages, and documents
// respectively. The stages fan out over a worker pool and fan
// back in deterministically: every task writes its result into a pre-sized
// slice at its own index, and the single-threaded apply/merge phase consumes
// that slice in order. Same seed and corpus therefore yield byte-identical
// stores and indexes at any worker count, which is what makes §7.3
// incremental maintenance (and test bisection) tractable.

// workers resolves the configured pool size, defaulting to GOMAXPROCS.
func (b *Builder) workers() int {
	if b.Cfg.Workers > 0 {
		return b.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelEach runs fn(i) for every i in [0, n) across at most w goroutines.
// Tasks are handed out through an atomic counter, so scheduling order is
// nondeterministic; callers get deterministic fan-in by writing task i's
// result only into slot i of a pre-sized slice and merging after return.
// With w <= 1 (or n <= 1) it degenerates to a plain sequential loop on the
// calling goroutine, so Workers=1 exercises the exact single-threaded path.
func parallelEach(n, w int, fn func(i int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
