package index

import (
	"container/heap"
	"math"
	"sort"
)

// The map-and-sort BM25F kernel the dense kernel in kernel.go replaced,
// retained verbatim as the oracle: per-query map accumulators, a seen-set
// document frequency, a full sort of every touched document. Only the
// tombstone probe follows the index's current representation. No non-test
// code calls it. Its statistics, their sum over shards and the k-way heap
// merge of the shards' rankings are the replaced sharded path's, retained
// here too, so the oracle shares no merge code with SearchCost.

func (ix *Index) refDF(t string) int {
	seen := make(map[int32]bool)
	for _, p := range ix.postings[t] {
		if !ix.dead[p.doc] {
			seen[p.doc] = true
		}
	}
	return len(seen)
}

func (ix *Index) refStatsLocked(toks []string) localStats {
	gs := localStats{
		ndocs:    len(ix.extIDs) - ix.ndead,
		df:       make(map[string]int, len(toks)),
		fieldLen: make(map[string]int, len(ix.fields)),
	}
	for _, t := range toks {
		if _, ok := gs.df[t]; !ok {
			gs.df[t] = ix.refDF(t)
		}
	}
	for _, fs := range ix.fields {
		gs.fieldLen[fs.name] += fs.totalLen
	}
	return gs
}

func (ix *Index) refSearchLocked(toks []string, gs localStats, k int) []Result {
	if gs.ndocs == 0 || len(ix.extIDs) == 0 {
		return nil
	}
	ndocs := float64(gs.ndocs)
	scores := make(map[int]float64)
	for _, t := range toks {
		ps := ix.postings[t]
		if len(ps) == 0 {
			continue
		}
		df := float64(gs.df[t])
		idf := math.Log(1 + (ndocs-df+0.5)/(df+0.5))
		// Accumulate boosted, length-normalized term frequency per doc.
		wtf := make(map[int32]float64)
		for _, p := range ps {
			if ix.dead[p.doc] {
				continue
			}
			fs := ix.fields[p.field]
			avg := gs.fieldLen[fs.name]
			if avg == 0 {
				continue
			}
			avgLen := float64(avg) / ndocs
			dl := 0.0
			if int(p.field) < len(ix.docLens[p.doc]) {
				dl = float64(ix.docLens[p.doc][p.field])
			}
			norm := 1 - bm25B + bm25B*dl/avgLen
			wtf[p.doc] += fs.boost * float64(p.freq) / norm
		}
		for d, tf := range wtf {
			scores[int(d)] += idf * tf / (bm25K1 + tf) * (bm25K1 + 1)
		}
	}
	return ix.refTopK(scores, k)
}

func (ix *Index) refTopK(scores map[int]float64, k int) []Result {
	out := make([]Result, 0, len(scores))
	for d, s := range scores {
		out = append(out, Result{ID: ix.extIDs[d], Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// refSearch is the replaced Index.Search.
func (ix *Index) refSearch(query string, k int) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	toks := tokenize(query)
	if len(toks) == 0 || len(ix.extIDs) == 0 {
		return nil
	}
	return ix.refSearchLocked(toks, ix.refStatsLocked(toks), k)
}

// refSearch is the replaced Sharded.Search: per-shard statistics from the
// reference, summed, scored per shard by the reference, k-way merged.
func (s *Sharded) refSearch(query string, k int) []Result {
	toks := tokenize(query)
	if len(toks) == 0 {
		return nil
	}
	if len(s.shards) == 1 {
		return s.shards[0].refSearch(query, k)
	}
	parts := make([]localStats, len(s.shards))
	for i, ix := range s.shards {
		ix.mu.RLock()
		parts[i] = ix.refStatsLocked(toks)
		ix.mu.RUnlock()
	}
	gs := mergeStats(parts)
	if gs.ndocs == 0 {
		return nil
	}
	lists := make([][]Result, len(s.shards))
	for i, ix := range s.shards {
		ix.mu.RLock()
		lists[i] = ix.refSearchLocked(toks, gs, k)
		ix.mu.RUnlock()
	}
	return mergeRanked(lists, k)
}

// localStats carries the corpus-level statistics BM25F scoring depends on:
// doc count, per-term document frequency, and per-field total length. All
// fields are integers so stats gathered per shard and summed convert to
// float64 at exactly the same points as the unsharded path — the foundation
// of the "identical scores at any shard count" guarantee.
type localStats struct {
	ndocs    int
	df       map[string]int // query term -> live docs containing it
	fieldLen map[string]int // field name -> total token count
}

// mergeStats sums shard-local statistics into global ones. Every doc lives
// in exactly one shard, so plain addition reproduces the unsharded counts.
func mergeStats(parts []localStats) localStats {
	gs := localStats{df: make(map[string]int), fieldLen: make(map[string]int)}
	for _, p := range parts {
		gs.ndocs += p.ndocs
		for t, n := range p.df {
			gs.df[t] += n
		}
		for f, n := range p.fieldLen {
			gs.fieldLen[f] += n
		}
	}
	return gs
}

// k-way merge of per-shard ranked result lists. Each shard returns its
// results already ordered by (score desc, ID asc); doc IDs are unique
// across shards, so that ordering is a total order and the merge is
// deterministic regardless of shard count.

// mergeHeap tracks the head of each non-empty list; the heap root is the
// globally next result.
type mergeHeap struct {
	lists [][]Result
	pos   []int // cursor into each list
	order []int // heap of list indices
}

func (h *mergeHeap) Len() int { return len(h.order) }

func (h *mergeHeap) Less(i, j int) bool {
	a := h.lists[h.order[i]][h.pos[h.order[i]]]
	b := h.lists[h.order[j]][h.pos[h.order[j]]]
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

func (h *mergeHeap) Swap(i, j int) { h.order[i], h.order[j] = h.order[j], h.order[i] }

func (h *mergeHeap) Push(x any) { h.order = append(h.order, x.(int)) }

func (h *mergeHeap) Pop() any {
	x := h.order[len(h.order)-1]
	h.order = h.order[:len(h.order)-1]
	return x
}

// mergeRanked merges per-shard ranked lists into one (score desc, ID asc)
// list of up to k results; k <= 0 means unlimited. Nil-ness mirrors the
// unsharded index: nil only when every input list is nil (each shard applies
// the single index's nil rules locally), else a non-nil slice — so callers
// see exactly the shapes Index.Search would have produced.
func mergeRanked(lists [][]Result, k int) []Result {
	h := &mergeHeap{lists: lists, pos: make([]int, len(lists))}
	total, allNil := 0, true
	for i, l := range lists {
		total += len(l)
		if l != nil {
			allNil = false
		}
		if len(l) > 0 {
			h.order = append(h.order, i)
		}
	}
	if total == 0 {
		if allNil {
			return nil
		}
		return []Result{}
	}
	heap.Init(h)
	if k <= 0 || k > total {
		k = total
	}
	out := make([]Result, 0, k)
	for len(out) < k && h.Len() > 0 {
		li := h.order[0]
		out = append(out, h.lists[li][h.pos[li]])
		h.pos[li]++
		if h.pos[li] == len(h.lists[li]) {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
	}
	return out
}
