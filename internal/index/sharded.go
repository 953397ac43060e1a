package index

import (
	"sort"
	"sync"

	"conceptweb/internal/shard"
)

// Sharded partitions an inverted index into n independent Index shards,
// routed by hash(doc ID) % n — the same routing function the record store
// uses. Writes touch only the owning shard's lock, so parallel builders
// index into disjoint partitions instead of queueing on one mutex; ranked
// queries scatter to all shards with globally summed corpus statistics and
// gather with a k-way merge, producing scores identical to a single Index
// holding the same documents. A single-shard Sharded is a thin forwarding
// wrapper, so the unsharded configuration costs one pointer indirection.
type Sharded struct {
	shards []*Index
}

// NewSharded returns an empty sharded index with n partitions (n < 1 is
// treated as 1).
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]*Index, n)}
	for i := range s.shards {
		s.shards[i] = New()
	}
	return s
}

// NumShards returns the number of partitions.
func (s *Sharded) NumShards() int { return len(s.shards) }

func (s *Sharded) shardFor(id string) *Index {
	return s.shards[shard.Of(id, len(s.shards))]
}

// Add indexes doc in its shard. See Index.Add for re-add semantics.
func (s *Sharded) Add(doc Document) {
	s.shardFor(doc.ID).Add(doc)
}

// AddPrepared indexes a document analyzed earlier with Prepare.
func (s *Sharded) AddPrepared(doc PreparedDoc) {
	s.shardFor(doc.ID).AddPrepared(doc)
}

// AddPreparedBatch indexes docs with up to workers concurrent writers, one
// per shard. Within each shard, documents are added in docs order, so the
// internal doc numbering of every shard — and therefore every score and
// every result — is identical for any (workers × shards) combination.
// Documents with an empty ID are skipped, matching the build pipeline's
// convention for "no document here".
func (s *Sharded) AddPreparedBatch(docs []PreparedDoc, workers int) {
	if workers <= 1 || len(s.shards) == 1 {
		for _, d := range docs {
			if d.ID == "" {
				continue
			}
			s.AddPrepared(d)
		}
		return
	}
	perShard := make([][]PreparedDoc, len(s.shards))
	for _, d := range docs {
		if d.ID == "" {
			continue
		}
		si := shard.Of(d.ID, len(s.shards))
		perShard[si] = append(perShard[si], d)
	}
	var wg sync.WaitGroup
	for si, batch := range perShard {
		if len(batch) == 0 {
			continue
		}
		wg.Add(1)
		go func(ix *Index, batch []PreparedDoc) {
			defer wg.Done()
			for _, d := range batch {
				ix.AddPrepared(d)
			}
		}(s.shards[si], batch)
	}
	wg.Wait()
}

// Remove drops the document from retrieval; see Index.Remove.
func (s *Sharded) Remove(id string) {
	s.shardFor(id).Remove(id)
}

// Has reports whether a live document with the given ID is indexed.
func (s *Sharded) Has(id string) bool {
	return s.shardFor(id).Has(id)
}

// Len returns the number of live documents across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, ix := range s.shards {
		n += ix.Len()
	}
	return n
}

// Tombstones returns the number of removed-but-unreclaimed doc slots
// across all shards.
func (s *Sharded) Tombstones() int {
	n := 0
	for _, ix := range s.shards {
		n += ix.Tombstones()
	}
	return n
}

// CompactTombstones reclaims tombstoned doc slots in every shard.
func (s *Sharded) CompactTombstones() {
	for _, ix := range s.shards {
		ix.CompactTombstones()
	}
}

// DF returns the document frequency of the query term across all shards.
func (s *Sharded) DF(term string) int {
	n := 0
	for _, ix := range s.shards {
		n += ix.DF(term)
	}
	return n
}

// Terms returns the number of distinct terms across all shards.
func (s *Sharded) Terms() int {
	if len(s.shards) == 1 {
		return s.shards[0].Terms()
	}
	seen := make(map[string]bool)
	for _, ix := range s.shards {
		ix.mu.RLock()
		for t := range ix.postings {
			seen[t] = true
		}
		ix.mu.RUnlock()
	}
	return len(seen)
}

// Postings returns the total posting-entry count across all shards.
func (s *Sharded) Postings() int {
	n := 0
	for _, ix := range s.shards {
		n += ix.Postings()
	}
	return n
}

// ShardPostings returns each shard's posting-entry count, by shard index;
// the observability layer exposes these as index.shard.<k>.postings gauges.
func (s *Sharded) ShardPostings() []int {
	out := make([]int, len(s.shards))
	for i, ix := range s.shards {
		out[i] = ix.Postings()
	}
	return out
}

// ShardEpochs returns each shard's mutation epoch, by shard index. Serving
// layers fold the vector into one composed cache-invalidation epoch.
func (s *Sharded) ShardEpochs() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, ix := range s.shards {
		out[i] = ix.Epoch()
	}
	return out
}

// each runs fn concurrently for every shard and waits.
func (s *Sharded) each(fn func(i int, ix *Index)) {
	var wg sync.WaitGroup
	for i, ix := range s.shards {
		wg.Add(1)
		go func(i int, ix *Index) {
			defer wg.Done()
			fn(i, ix)
		}(i, ix)
	}
	wg.Wait()
}

// Search runs a BM25F-ranked query with scatter-gather: every shard first
// reports its corpus statistics (doc count, term document frequencies,
// field length totals — all integers), the sums are handed back to each
// shard for scoring, and the per-shard rankings are k-way merged. Because
// the summed statistics equal what one big index would hold and shard
// scoring reuses the exact single-index arithmetic, scores are identical
// to the unsharded path bit for bit.
func (s *Sharded) Search(query string, k int) []Result {
	out, _ := s.SearchCost(query, k)
	return out
}

// SearchCost is Search plus the work the query did, for callers that
// publish it as a metric.
func (s *Sharded) SearchCost(query string, k int) ([]Result, Cost) {
	if len(s.shards) == 1 {
		return s.shards[0].searchCost(query, k)
	}
	toks := tokenize(query)
	if len(toks) == 0 {
		return nil, Cost{}
	}
	parts := make([]localStats, len(s.shards))
	s.each(func(i int, ix *Index) { parts[i] = ix.searchStats(toks) })
	gs := mergeStats(parts)
	if gs.ndocs == 0 {
		return nil, Cost{}
	}
	lists := make([][]Result, len(s.shards))
	costs := make([]Cost, len(s.shards))
	s.each(func(i int, ix *Index) { lists[i], costs[i] = ix.searchWithStats(toks, gs, k) })
	var cost Cost
	for _, c := range costs {
		cost.Touched += c.Touched
		cost.Postings += c.Postings
	}
	return mergeRanked(lists, k), cost
}

// mergeIDs merges per-shard sorted ID lists; shards are disjoint, so
// concatenate-and-sort reproduces a single index's output. Nil-ness mirrors
// the unsharded index: nil only when every shard returned nil (each shard
// applies Index's own nil rules locally), else non-nil even when empty.
func mergeIDs(lists [][]string) []string {
	total, allNil := 0, true
	for _, l := range lists {
		total += len(l)
		if l != nil {
			allNil = false
		}
	}
	if total == 0 {
		if allNil {
			return nil
		}
		return []string{}
	}
	out := make([]string, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Strings(out)
	return out
}

// SearchAll returns the IDs of documents containing all query terms,
// sorted by ID.
func (s *Sharded) SearchAll(query string) []string {
	if len(s.shards) == 1 {
		return s.shards[0].SearchAll(query)
	}
	lists := make([][]string, len(s.shards))
	s.each(func(i int, ix *Index) { lists[i] = ix.SearchAll(query) })
	return mergeIDs(lists)
}

// SearchAny returns the IDs of documents containing at least one query
// term, sorted by ID.
func (s *Sharded) SearchAny(query string) []string {
	if len(s.shards) == 1 {
		return s.shards[0].SearchAny(query)
	}
	lists := make([][]string, len(s.shards))
	s.each(func(i int, ix *Index) { lists[i] = ix.SearchAny(query) })
	return mergeIDs(lists)
}
