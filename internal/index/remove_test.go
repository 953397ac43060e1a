package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// corpusDocs builds a deterministic synthetic corpus large enough that BM25
// statistics differ meaningfully between documents.
func corpusDocs(n int) []Document {
	rng := rand.New(rand.NewSource(42))
	words := []string{
		"pizza", "sushi", "taco", "ramen", "curry", "cupertino", "jose",
		"menu", "review", "spicy", "noodle", "grill", "bakery", "vegan",
		"brunch", "patio", "delivery", "fusion", "izakaya", "tapas",
	}
	sentence := func(k int) string {
		s := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				s += " "
			}
			s += words[rng.Intn(len(words))]
		}
		return s
	}
	docs := make([]Document, n)
	for i := range docs {
		docs[i] = Document{
			ID: fmt.Sprintf("doc-%03d", i),
			Fields: []Field{
				{Name: "title", Text: sentence(3 + rng.Intn(3)), Boost: 2},
				{Name: "body", Text: sentence(15 + rng.Intn(20))},
			},
		}
	}
	return docs
}

func buildIndex(docs []Document) *Index {
	ix := New()
	for _, d := range docs {
		ix.Add(d)
	}
	return ix
}

// TestRemoveShrinksStats is the PR 8 regression bar: removal must shrink
// the BM25 corpus statistics (ndocs, df, field totals) immediately, not
// just tombstone the doc, so an index that churned through removals scores
// bit-for-bit like one that never held the removed docs.
func TestRemoveShrinksStats(t *testing.T) {
	docs := corpusDocs(120)
	removed := map[string]bool{}
	full := buildIndex(docs)
	for i := 0; i < len(docs); i += 3 {
		full.Remove(docs[i].ID)
		removed[docs[i].ID] = true
	}
	var survivors []Document
	for _, d := range docs {
		if !removed[d.ID] {
			survivors = append(survivors, d)
		}
	}
	fresh := buildIndex(survivors)

	if full.Len() != len(survivors) || full.Len() != fresh.Len() {
		t.Fatalf("Len after removals = %d, want %d", full.Len(), len(survivors))
	}
	for _, term := range []string{"pizza", "sushi", "vegan", "izakaya", "nosuchterm"} {
		if a, b := full.DF(term), fresh.DF(term); a != b {
			t.Errorf("DF(%q) = %d after removals, fresh index says %d", term, a, b)
		}
	}
	queries := []string{
		"pizza cupertino", "sushi ramen spicy", "vegan brunch patio",
		"izakaya", "taco delivery menu", "review", "fusion tapas grill",
	}
	for _, q := range queries {
		if a, b := full.Search(q, 0), fresh.Search(q, 0); !reflect.DeepEqual(a, b) {
			t.Errorf("Search(%q) after removals diverges from fresh index:\n churned: %+v\n   fresh: %+v", q, a, b)
		}
	}
}

// TestTombstoneCompaction: enough removals trigger the automatic sweep
// that physically reclaims postings; manual CompactTombstones drains the
// rest; neither changes retrieval output, and revival by re-Add keeps
// working on a compacted index.
func TestTombstoneCompaction(t *testing.T) {
	docs := corpusDocs(200)
	ix := buildIndex(docs)
	before := ix.Postings()
	// Remove 80 docs one at a time: the 64-tombstone threshold fires
	// mid-way (64*8 >= 200), reclaiming postings automatically.
	for i := 0; i < 80; i++ {
		ix.Remove(docs[i].ID)
	}
	if got := ix.Tombstones(); got >= 64 {
		t.Errorf("auto-compaction never fired: %d tombstones left", got)
	}
	if got := ix.Postings(); got >= before {
		t.Errorf("postings did not shrink: %d -> %d", before, got)
	}
	ix.CompactTombstones()
	if got := ix.Tombstones(); got != 0 {
		t.Errorf("tombstones after manual compaction = %d", got)
	}

	fresh := buildIndex(docs[80:])
	if ix.Postings() != fresh.Postings() || ix.Terms() != fresh.Terms() || ix.Len() != fresh.Len() {
		t.Errorf("compacted stats diverge from fresh: %d/%d/%d postings/terms/docs vs %d/%d/%d",
			ix.Postings(), ix.Terms(), ix.Len(), fresh.Postings(), fresh.Terms(), fresh.Len())
	}
	for _, q := range []string{"pizza", "sushi ramen", "vegan brunch patio", "review menu"} {
		if a, b := ix.Search(q, 0), fresh.Search(q, 0); !reflect.DeepEqual(a, b) {
			t.Errorf("Search(%q) after compaction diverges:\n churned: %+v\n   fresh: %+v", q, a, b)
		}
	}

	// Revive one removed doc on the compacted index.
	ix.Add(docs[0])
	if !ix.Has(docs[0].ID) || ix.Len() != fresh.Len()+1 {
		t.Fatalf("revival after compaction failed: has=%v len=%d", ix.Has(docs[0].ID), ix.Len())
	}
	freshPlus := buildIndex(append(append([]Document{}, docs[80:]...), docs[0]))
	for _, q := range []string{"pizza", "taco delivery menu"} {
		if a, b := ix.Search(q, 0), freshPlus.Search(q, 0); !reflect.DeepEqual(a, b) {
			t.Errorf("Search(%q) after revival diverges:\n churned: %+v\n   fresh: %+v", q, a, b)
		}
	}
}

// TestRemoveUnknownAndDoubleRemove: unknown IDs and repeated removals are
// no-ops and must not corrupt field totals (a double subtract would skew
// every later score).
func TestRemoveUnknownAndDoubleRemove(t *testing.T) {
	docs := corpusDocs(10)
	ix := buildIndex(docs)
	ix.Remove("no-such-doc")
	ix.Remove(docs[3].ID)
	ix.Remove(docs[3].ID) // double remove: stats must not shrink twice
	fresh := buildIndex(append(append([]Document{}, docs[:3]...), docs[4:]...))
	for _, q := range []string{"pizza", "sushi", "menu review"} {
		if a, b := ix.Search(q, 0), fresh.Search(q, 0); !reflect.DeepEqual(a, b) {
			t.Errorf("Search(%q) after double remove diverges:\n got: %+v\nwant: %+v", q, a, b)
		}
	}
}
