package index

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"
)

// The BM25F query kernel. The one ranked query path, SearchCost, takes the
// index's read lock once for both of its phases: it counts the query's corpus
// statistics into a pooled scratch and then scores in searchLocked, which
// scores exhaustively and allocates only the result slice: accumulators are
// dense per-doc-slot arrays in the scratch, the best k are kept in a bounded
// heap, and one sort puts them in order. Selection and sort break score ties
// on each slot's ID rank, an integer (slotRanks), never on the ID strings;
// the first query after a write also allocates the new rank array. Scores,
// order and tie-breaks are bit-identical to the map-and-sort kernel it
// replaced (kept as the test oracle in kernel_ref_test.go).

// Cost is the work one ranked query did: documents scored and posting
// entries walked.
type Cost struct {
	Touched  int
	Postings int
}

// cand is one scored document awaiting selection: its score, its slot's ID
// rank (see slotRanks) and its slot.
type cand struct {
	score float64
	rank  int32
	doc   int32
}

// scratch is one query's working memory. Between queries hit is all false
// and touched is empty; everything else is overwritten before it is read.
type scratch struct {
	df      []int     // by query token position
	score   []float64 // by doc slot; meaningful only where hit
	hit     []bool    // by doc slot
	touched []int32   // doc slots scored, in first-touch order
	avgLen  []float64 // by field number; 0 marks a field with no tokens
	heap    []cand
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Search runs a BM25F-ranked query; see SearchCost.
func (ix *Index) Search(query string, k int) []Result {
	out, _ := ix.SearchCost(query, k)
	return out
}

// SearchCost runs a BM25F-ranked query and returns up to k results (all when
// k <= 0) in (score desc, ID asc) order, plus the work the query did, for
// callers that publish it as a metric. The corpus statistics and the scores
// are read under one read lock, so a write never lands between them. It
// returns nil when the query has no tokens or the index no live documents.
func (ix *Index) SearchCost(query string, k int) ([]Result, Cost) {
	toks := tokenize(query)
	if len(toks) == 0 {
		return nil, Cost{}
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ndocs := len(ix.extIDs) - ix.ndead
	if ndocs == 0 {
		return nil, Cost{}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.df = sc.df[:0]
	for _, t := range toks {
		sc.df = append(sc.df, ix.df(t))
	}
	return ix.searchLocked(sc, toks, ndocs, k)
}

// searchLocked scores the index's documents against toks and returns the
// best k (all of them when k <= 0) by (score desc, ID asc). sc.df holds each
// token's document frequency and ndocs the live documents. It leaves sc
// ready for the next query. Caller holds at least an RLock and has checked
// that ndocs > 0.
//
// The arithmetic relies on one invariant: a document's postings for a term
// are adjacent in the term's list. AddPrepared appends all of them under one
// lock hold to a doc slot of their own (a re-added document's previous
// version keeps its old, tombstoned slot), and compaction preserves order.
// So the boosted, length-normalized term frequency of a
// document is the sum over one run, taken in posting order, and a document's
// score grows by one addend per query token, in token order.
func (ix *Index) searchLocked(sc *scratch, toks []string, ndocs, k int) ([]Result, Cost) {
	if len(sc.hit) < len(ix.extIDs) {
		sc.score = make([]float64, len(ix.extIDs))
		sc.hit = make([]bool, len(ix.extIDs))
	}
	n := float64(ndocs)
	sc.avgLen = sc.avgLen[:0]
	for _, fs := range ix.fields {
		avg := 0.0
		if fs.totalLen != 0 {
			avg = float64(fs.totalLen) / n
		}
		sc.avgLen = append(sc.avgLen, avg)
	}
	var cost Cost
	for i, t := range toks {
		ps := ix.postings[t]
		if len(ps) == 0 {
			continue
		}
		cost.Postings += len(ps)
		df := float64(sc.df[i])
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for j := 0; j < len(ps); {
			d := ps[j].doc
			if ix.dead[d] {
				for j++; j < len(ps) && ps[j].doc == d; j++ {
				}
				continue
			}
			lens := ix.docLens[d]
			tf, scored := 0.0, false
			for ; j < len(ps) && ps[j].doc == d; j++ {
				p := &ps[j]
				avgLen := sc.avgLen[p.field]
				if avgLen == 0 {
					continue
				}
				dl := 0.0
				if int(p.field) < len(lens) {
					dl = float64(lens[p.field])
				}
				norm := 1 - bm25B + bm25B*dl/avgLen
				tf += ix.fields[p.field].boost * float64(p.freq) / norm
				scored = true
			}
			if !scored {
				continue
			}
			if !sc.hit[d] {
				sc.hit[d] = true
				sc.score[d] = 0
				sc.touched = append(sc.touched, d)
			}
			sc.score[d] += idf * tf / (bm25K1 + tf) * (bm25K1 + 1)
		}
	}
	cost.Touched = len(sc.touched)
	out := ix.topK(sc, k)
	for _, d := range sc.touched {
		sc.hit[d] = false
	}
	sc.touched = sc.touched[:0]
	return out, cost
}

// slotRanks returns the index's slot → ID-rank array: rank[a] < rank[b]
// exactly when extIDs[a] < extIDs[b] for two live slots (a live slot's ID is
// unique; a tombstoned slot may repeat a live one's, and is never scored).
// The published array covers the slots that existed when it was built: an
// add leaves it short, and a compaction, which renumbers the slots, drops it.
// A query that finds it short places each slot added since by binary search
// in the covered slots' ID order, so a read that follows a few adds pays
// O(slots) integer moves and a few string compares per new slot; only the
// first query on a fresh or compacted index sorts every ID. Caller holds at
// least an RLock, so no writer runs meanwhile, and queries that race to
// extend the array start from one published array and publish equal ones.
func (ix *Index) slotRanks() []int32 {
	var old []int32
	if r := ix.ranks.Load(); r != nil {
		old = *r
	}
	n := len(ix.extIDs)
	if len(old) == n {
		return old
	}
	byID := func(a, b int32) int {
		return strings.Compare(ix.extIDs[a], ix.extIDs[b])
	}
	added := make([]int32, 0, n-len(old))
	for slot := len(old); slot < n; slot++ {
		added = append(added, int32(slot))
	}
	slices.SortFunc(added, byID)
	order := make([]int32, len(old)) // the covered slots, by ID
	for slot, r := range old {
		order[r] = int32(slot)
	}
	rank := make([]int32, n)
	next := int32(0)
	for _, slot := range added {
		i, _ := slices.BinarySearchFunc(order, slot, byID)
		for _, o := range order[:i] {
			rank[o] = next
			next++
		}
		order = order[i:]
		rank[slot] = next
		next++
	}
	for _, o := range order {
		rank[o] = next
		next++
	}
	ix.ranks.Store(&rank)
	return rank
}

// ranksBelow reports whether a comes after b in (score desc, rank asc)
// order, which on scored slots is (score desc, ID asc). Ranks of live slots
// are unique, so this is a strict total order and any correct selection and
// sort under it returns one sequence.
func ranksBelow(a, b cand) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.rank > b.rank
}

// byRank orders candidates best first: (score desc, rank asc).
func byRank(a, b cand) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	return cmp.Compare(a.rank, b.rank)
}

// topK selects the best k touched documents (all when k <= 0) with a bounded
// heap whose root is the lowest-ranked one kept, then sorts what it kept into
// rank order. A query that touched nothing returns before the ranks are
// looked at, so it never rebuilds them.
func (ix *Index) topK(sc *scratch, k int) []Result {
	if len(sc.touched) == 0 {
		return []Result{}
	}
	if k <= 0 || k > len(sc.touched) {
		k = len(sc.touched)
	}
	rank := ix.slotRanks()
	h := sc.heap[:0]
	for _, d := range sc.touched {
		c := cand{score: sc.score[d], rank: rank[d], doc: d}
		switch {
		case len(h) < k:
			h = append(h, c)
			if len(h) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftDown(h, i)
				}
			}
		case ranksBelow(h[0], c):
			h[0] = c
			siftDown(h, 0)
		}
	}
	sc.heap = h
	slices.SortFunc(h, byRank)
	out := make([]Result, len(h))
	for i, c := range h {
		out[i] = Result{ID: ix.extIDs[c.doc], Score: c.score}
	}
	return out
}

// siftDown restores the heap property (parent ranks below its children)
// under h[i].
func siftDown(h []cand, i int) {
	for {
		low := i
		if l := 2*i + 1; l < len(h) && ranksBelow(h[l], h[low]) {
			low = l
		}
		if r := 2*i + 2; r < len(h) && ranksBelow(h[r], h[low]) {
			low = r
		}
		if low == i {
			return
		}
		h[i], h[low] = h[low], h[i]
		i = low
	}
}
