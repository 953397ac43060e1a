package index

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

var propVocab = strings.Fields(`pizza pasta sushi noodle curry taco burger ramen
	cupertino sunnyvale fremont oakland berkeley market street avenue house kitchen
	grill garden palace golden dragon lucky star running walked tables reviews
	menu phone rating best cheap open late family`)

// propDoc draws a document with one to three fields; field names repeat
// within a document now and then and boosts include the zero default.
func propDoc(rng *rand.Rand, id string) Document {
	names := []string{"title", "body", "tags"}
	boosts := []float64{0, 1, 2.5, 3, 0.5}
	d := Document{ID: id}
	for f, nf := 0, 1+rng.Intn(3); f < nf; f++ {
		words := make([]string, 1+rng.Intn(12))
		for i := range words {
			// Squaring skews draws toward the head of the vocabulary, so
			// some terms touch most documents and some almost none.
			u := rng.Float64()
			words[i] = propVocab[int(u*u*float64(len(propVocab)))]
		}
		d.Fields = append(d.Fields, Field{
			Name:  names[rng.Intn(len(names))],
			Text:  strings.Join(words, " "),
			Boost: boosts[rng.Intn(len(boosts))],
		})
	}
	return d
}

func propQueries(rng *rand.Rand) []string {
	qs := []string{"", "zzzunknown", "pizza pizza", "pizza zzzunknown cupertino", "the"}
	for i := 0; i < 12; i++ {
		words := make([]string, 1+rng.Intn(4))
		for j := range words {
			words[j] = propVocab[rng.Intn(len(propVocab))]
		}
		qs = append(qs, strings.Join(words, " "))
	}
	return qs
}

// sameResults compares by bit pattern, ID and nil-ness.
func sameResults(got, want []Result) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("nil-ness: got nil=%v want nil=%v", got == nil, want == nil)
	}
	if len(got) != len(want) {
		return fmt.Errorf("len %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: got %s/%x want %s/%x", i,
				got[i].ID, math.Float64bits(got[i].Score), want[i].ID, math.Float64bits(want[i].Score))
		}
	}
	return nil
}

// checkAdjacent fails when some document's postings for a term are split
// into more than one run — the invariant the kernel and df count on.
func checkAdjacent(t *testing.T, ix *Index, when string) {
	t.Helper()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for term, ps := range ix.postings {
		closed := make(map[int32]bool)
		for i, p := range ps {
			if i > 0 && ps[i-1].doc != p.doc {
				closed[ps[i-1].doc] = true
			}
			if closed[p.doc] {
				t.Fatalf("%s: term %q: postings of doc slot %d are not adjacent", when, term, p.doc)
			}
		}
	}
}

// checkSlotBound fails when the index holds tombstones the automatic
// compaction rule should have reclaimed, or more doc slots than 8/7 of its
// live documents plus 64 — the pooled query scratch is sized to slots. It
// counts a compaction in *compactions whenever the tombstones fell below
// *lastDead, which it keeps up to date.
func checkSlotBound(t *testing.T, ix *Index, lastDead, compactions *int) {
	t.Helper()
	ix.mu.RLock()
	slots, dead := len(ix.extIDs), ix.ndead
	ix.mu.RUnlock()
	live := slots - dead
	if dead >= compactMinTombstones && dead*compactFraction >= slots {
		t.Fatalf("%d tombstones in %d slots survived the compaction rule", dead, slots)
	}
	if slots*7 > live*8+7*64 {
		t.Fatalf("%d slots for %d live documents", slots, live)
	}
	if dead < *lastDead {
		*compactions++
	}
	*lastDead = dead
}

func checkKernel(t *testing.T, ix *Index, queries []string, when string) {
	t.Helper()
	checkAdjacent(t, ix, when)
	ix.mu.RLock()
	for term := range ix.postings {
		if got, want := ix.df(term), ix.refDF(term); got != want {
			t.Fatalf("%s: df(%q) = %d, reference %d", when, term, got, want)
		}
	}
	ix.mu.RUnlock()
	for _, q := range queries {
		// The reported cost is the work done: every scored document is a
		// result at k = 0, and scoring one walks at least one posting.
		all, cost := ix.SearchCost(q, 0)
		if cost.Touched != len(all) || cost.Postings < cost.Touched {
			t.Fatalf("%s: q=%q: cost %+v for %d results", when, q, cost, len(all))
		}
		for _, k := range []int{0, 1, 3, 10, 1 << 20} {
			if err := sameResults(ix.Search(q, k), ix.refSearch(q, k)); err != nil {
				t.Fatalf("%s: q=%q k=%d: %v", when, q, k, err)
			}
		}
	}
	// The queries above extended or rebuilt the ID ranks; whichever way the
	// index got its array, live slots in rank order are in ID order.
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rank := ix.slotRanks()
	var live []int32
	for d := range ix.extIDs {
		if !ix.dead[d] {
			live = append(live, int32(d))
		}
	}
	slices.SortFunc(live, func(a, b int32) int { return cmp.Compare(rank[a], rank[b]) })
	for i := 1; i < len(live); i++ {
		if a, b := ix.extIDs[live[i-1]], ix.extIDs[live[i]]; a >= b {
			t.Fatalf("%s: live slots in rank order hold %q before %q", when, a, b)
		}
	}
}

// tiedDoc draws one of four fixed documents, so most of a tied corpus's
// documents score exactly alike and its rankings are ordered by ID alone.
func tiedDoc(rng *rand.Rand, id string) Document {
	texts := []string{"pizza cupertino", "pizza house cupertino", "sushi fremont", "pizza"}
	return Document{ID: id, Fields: []Field{
		{Name: "title", Text: texts[rng.Intn(len(texts))], Boost: 2},
		{Name: "body", Text: "menu phone rating"},
	}}
}

// TestKernelMatchesReference drives seeded random corpora through adds,
// re-adds of live and removed IDs, removals up to and past the automatic
// compaction threshold, a forced compaction and a long re-add-only phase
// that compacts on its own, and at every stage compares the dense kernel
// with the retained map-and-sort reference by score bits, exact order and
// nil-ness. A mostly-tied corpus, whose IDs arrive in an order unrelated to
// their sort order, runs through adds, removals, re-adds and compaction too:
// there the tie-break on ID ranks decides almost every position. The index
// is one partition: the subtest keeps the name shards=1.
func TestKernelMatchesReference(t *testing.T) {
	t.Run("tied/shards=1", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		queries := []string{"pizza", "pizza cupertino", "cupertino house", "sushi menu", "rating"}
		s := New()
		const n = 300
		perm := rng.Perm(n)
		id := func(i int) string { return fmt.Sprintf("t%03d", perm[i]) }
		for i := 0; i < n; i++ {
			s.Add(tiedDoc(rng, id(i)))
			if i%50 == 49 {
				checkKernel(t, s, queries, "tied: during adds")
			}
		}
		if all := s.Search("pizza", 0); len(all) < n/2 || all[0].Score != all[10].Score {
			t.Fatalf("tied corpus: %d pizza hits, the first eleven not all tied", len(all))
		}
		for i := 0; i < n/3; i++ {
			s.Remove(id(rng.Intn(n)))
		}
		checkKernel(t, s, queries, "tied: after removals")
		for i := 0; i < n/2; i++ {
			s.Add(tiedDoc(rng, id(rng.Intn(n)))) // re-adds and revivals
		}
		checkKernel(t, s, queries, "tied: after re-adds")
		s.CompactTombstones()
		checkKernel(t, s, queries, "tied: after compaction")
		for i := 0; i < n/4; i++ {
			s.Add(tiedDoc(rng, fmt.Sprintf("u%03d", rng.Intn(n))))
		}
		checkKernel(t, s, queries, "tied: after new IDs")
	})
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed*100 + 1))
		queries := propQueries(rng)
		s := New()
		checkKernel(t, s, queries, "empty")

		const n = 400
		id := func(i int) string { return fmt.Sprintf("doc-%03d", i) }
		for i := 0; i < n; i++ {
			s.Add(propDoc(rng, id(i)))
		}
		// Prepared documents may carry boosts Prepare would have
		// defaulted: a zero boost scores a touched document 0.
		s.AddPrepared(PreparedDoc{ID: "zero-boost", Fields: []PreparedField{
			grouperPool.Get().(*grouper).field("title", 0, tokenize("pizza cupertino")),
		}})
		checkKernel(t, s, queries, "after adds")

		for i := 0; i < 60; i++ {
			s.Add(propDoc(rng, id(rng.Intn(n))))
		}
		checkKernel(t, s, queries, "after re-adds")

		for i := 0; i < 40; i++ {
			s.Remove(id(rng.Intn(n)))
		}
		if s.Tombstones() == 0 {
			t.Fatal("removals left no tombstones to score around")
		}
		checkKernel(t, s, queries, "after removals")

		for i := 0; i < 15; i++ {
			s.Add(propDoc(rng, id(rng.Intn(n)))) // revives some
		}
		checkKernel(t, s, queries, "after revivals")

		s.CompactTombstones()
		if s.Tombstones() != 0 {
			t.Fatal("forced compaction left tombstones")
		}
		checkKernel(t, s, queries, "after forced compaction")

		// Re-add only, no Remove, long enough to pile up the 64 replaced
		// slots that trigger automatic compaction several times over.
		lastDead, compactions := 0, 0
		for i := 0; i < 4000; i++ {
			s.Add(propDoc(rng, id(rng.Intn(n))))
			checkSlotBound(t, s, &lastDead, &compactions)
			if i%500 == 499 {
				checkKernel(t, s, queries, "during re-adds")
			}
		}
		if compactions == 0 {
			t.Fatal("never compacted under re-adds")
		}
		if s.Len() != n+1 {
			t.Fatalf("re-adds changed the live count: %d, want %d", s.Len(), n+1)
		}
		checkKernel(t, s, queries, "after re-add churn")

		// Remove most documents: the index crosses the automatic compaction
		// gate (64 tombstones and 1/8 of its slots).
		before := s.Tombstones()
		compacted := false
		for i := 0; i < n*3/4; i++ {
			s.Remove(id(i))
			if s.Tombstones() < before {
				compacted = true
			}
			before = s.Tombstones()
		}
		if !compacted {
			t.Fatal("automatic compaction never ran")
		}
		checkKernel(t, s, queries, "after mass removal")

		for i := 0; i < n; i++ {
			s.Remove(id(i))
		}
		s.Remove("zero-boost")
		checkKernel(t, s, queries, "all removed")
	}
}
