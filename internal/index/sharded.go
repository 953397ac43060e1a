package index

import (
	"sync"

	"conceptweb/internal/shard"
)

// Sharded partitions an inverted index into n independent Index shards,
// routed by hash(doc ID) % n — the same routing function the record store
// uses. Writes touch only the owning shard's lock, so parallel builders
// index into disjoint partitions instead of queueing on one mutex. A ranked
// query (SearchCost) visits the shards in turn with globally summed corpus
// statistics and merges their rankings, producing scores identical to a
// single Index holding the same documents. One shard takes the same path as
// many: there is no second way to answer a query.
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

// AddPreparedBatch indexes docs: in the caller's goroutine when workers <= 1,
// else with one writer goroutine per shard that has documents, however many
// workers are asked for. Within each shard, documents are added in docs
// order, so the internal doc numbering of every shard — and therefore every
// score and every result — is identical for any (workers × shards)
// combination.
// Documents with an empty ID are skipped, matching the build pipeline's
// convention for "no document here".
func (s *Sharded) AddPreparedBatch(docs []PreparedDoc, workers int) {
	if workers <= 1 {
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

// Search runs a BM25F-ranked query; see SearchCost.
func (s *Sharded) Search(query string, k int) []Result {
	out, _ := s.SearchCost(query, k)
	return out
}

// SearchCost runs a BM25F-ranked query and returns up to k results (all when
// k <= 0) in (score desc, ID asc) order, plus the work the query did, for
// callers that publish it as a metric. It works in two serial phases in the
// caller's goroutine: every shard in turn adds its corpus statistics (doc
// count, term document frequencies, field length totals — all integers) into
// one accumulator, then every shard in turn is scored against the sums and its
// ranking folded into the result. The sums equal what one index holding every
// document would count and each shard scores with the same arithmetic, so
// scores are identical at every shard count, bit for bit. A phase holds one
// shard's read lock at a time, so a write can land between the phases; the
// woc facade serializes maintenance against queries.
func (s *Sharded) SearchCost(query string, k int) ([]Result, Cost) {
	toks := tokenize(query)
	if len(toks) == 0 {
		return nil, Cost{}
	}
	sc := getScratch(len(toks))
	defer scratchPool.Put(sc)
	for _, ix := range s.shards {
		ix.addStats(sc, toks)
	}
	if sc.ndocs == 0 {
		return nil, Cost{}
	}
	var out []Result
	var cost Cost
	for _, ix := range s.shards {
		list, c := ix.search(sc, toks, k)
		cost.Touched += c.Touched
		cost.Postings += c.Postings
		out = mergeTwo(out, list, k)
	}
	return out, cost
}

// mergeTwo merges two rankings, each in (score desc, ID asc) order, into one
// of up to k results (all when k <= 0). Shards hold disjoint IDs, so the
// order is total and the merge deterministic. Folding the shards' rankings
// into a nil a returns the first one as it is, so one shard costs no copy,
// and the fold is nil only when every shard's ranking was (a shard with no
// doc slots answers nil).
func mergeTwo(a, b []Result, k int) []Result {
	n := len(a) + len(b)
	if k > 0 && n > k {
		n = k
	}
	switch {
	case a == nil:
		return b[:n]
	case len(b) == 0:
		return a[:n]
	}
	out := make([]Result, n)
	i, j := 0, 0
	for o := range out {
		if j == len(b) || i < len(a) && (a[i].Score > b[j].Score || a[i].Score == b[j].Score && a[i].ID < b[j].ID) {
			out[o], i = a[i], i+1
		} else {
			out[o], j = b[j], j+1
		}
	}
	return out
}
