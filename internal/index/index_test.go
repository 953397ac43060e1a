package index

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func doc(id, title, body string) Document {
	return Document{ID: id, Fields: []Field{
		{Name: "title", Text: title, Boost: 2},
		{Name: "body", Text: body},
	}}
}

func buildSmall() *Index {
	ix := New()
	ix.Add(doc("d1", "Gochi Fusion Tapas", "japanese izakaya in cupertino with small plates and sake"))
	ix.Add(doc("d2", "Birk's Steakhouse", "american steak house in santa clara near zipcode 95054"))
	ix.Add(doc("d3", "Pizza My Heart", "pizza by the slice in cupertino and san jose"))
	ix.Add(doc("d4", "Cupertino city guide", "restaurants parks and schools of cupertino california"))
	return ix
}

func TestSearchRanking(t *testing.T) {
	ix := buildSmall()
	res := ix.Search("gochi cupertino", 10)
	if len(res) == 0 || res[0].ID != "d1" {
		t.Fatalf("results = %+v, want d1 first", res)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Errorf("results not sorted: %+v", res)
		}
	}
}

func TestTitleBoost(t *testing.T) {
	ix := New()
	ix.Add(doc("title-hit", "salsa festival", "unrelated text about nothing"))
	ix.Add(doc("body-hit", "unrelated heading", "salsa appears in the body text here"))
	res := ix.Search("salsa", 2)
	if len(res) != 2 || res[0].ID != "title-hit" {
		t.Fatalf("res = %+v, want title-hit first", res)
	}
}

func TestSearchTopK(t *testing.T) {
	ix := buildSmall()
	if res := ix.Search("cupertino", 2); len(res) != 2 {
		t.Errorf("k=2 gave %d results", len(res))
	}
	if res := ix.Search("cupertino", 0); len(res) != 3 {
		t.Errorf("k=0 (unlimited) gave %d results", len(res))
	}
}

func TestSearchEmptyAndMissing(t *testing.T) {
	ix := buildSmall()
	if res := ix.Search("", 5); res != nil {
		t.Errorf("empty query gave %v", res)
	}
	if res := ix.Search("zzzzqqq", 5); len(res) != 0 {
		t.Errorf("missing term gave %v", res)
	}
	if res := New().Search("anything", 5); res != nil {
		t.Errorf("empty index gave %v", res)
	}
}

func TestSearchStems(t *testing.T) {
	ix := buildSmall()
	// "restaurant" should match "restaurants" in d4 via stemming.
	res := ix.Search("restaurant", 5)
	if len(res) != 1 || res[0].ID != "d4" {
		t.Fatalf("res = %+v", res)
	}
}

func TestReAddReplacesDocument(t *testing.T) {
	ix := New()
	ix.Add(doc("d1", "old title words", "old body"))
	ix.Add(doc("d1", "new fresh heading", "new body content"))
	if got := ix.Search("old", 0); len(got) != 0 {
		t.Errorf("old content still findable: %v", got)
	}
	if got := ix.Search("fresh", 0); len(got) != 1 || got[0].ID != "d1" {
		t.Errorf("new content not findable: %v", got)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d", ix.Len())
	}
}

func TestDFAndTerms(t *testing.T) {
	ix := buildSmall()
	if df := ix.DF("cupertino"); df != 3 {
		t.Errorf("DF(cupertino) = %d", df)
	}
	if df := ix.DF(""); df != 0 {
		t.Errorf("DF(empty) = %d", df)
	}
	if ix.Terms() == 0 {
		t.Error("Terms = 0")
	}
	if !ix.Has("d1") || ix.Has("nope") {
		t.Error("Has wrong")
	}
}

// TestPostingIs12Bytes guards the posting's width: postings are most of an
// index's heap, so a wider field costs memory at every corpus size.
func TestPostingIs12Bytes(t *testing.T) {
	if n := unsafe.Sizeof(posting{}); n != 12 {
		t.Errorf("posting is %d bytes, want 12", n)
	}
}

func TestIDFOrdering(t *testing.T) {
	// A rarer term must contribute more: query for it should rank the
	// doc containing it above docs sharing only a common term.
	ix := New()
	for i := 0; i < 10; i++ {
		ix.Add(doc(fmt.Sprintf("common%d", i), "filler", "cupertino dining spot"))
	}
	ix.Add(doc("rare", "filler", "cupertino izakaya"))
	res := ix.Search("izakaya cupertino", 3)
	if len(res) == 0 || res[0].ID != "rare" {
		t.Fatalf("res = %+v", res)
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ix.Add(doc(fmt.Sprintf("w%d-%d", w, i), "title text", "body word stream"))
				ix.Search("title", 3)
				ix.Search("body word", 0)
			}
		}(w)
	}
	wg.Wait()
	if ix.Len() != 200 {
		t.Errorf("Len = %d, want 200", ix.Len())
	}
}

func TestSearchNeverPanicsProperty(t *testing.T) {
	ix := buildSmall()
	f := func(q string) bool {
		_ = ix.Search(q, 5)
		_ = ix.Search(q, 0)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	ix := New()
	ix.Add(doc("b", "same words here", ""))
	ix.Add(doc("a", "same words here", ""))
	res := ix.Search("same words", 2)
	if len(res) != 2 || res[0].ID != "a" {
		t.Errorf("tie-break not by ID: %+v", res)
	}
}

func TestRemove(t *testing.T) {
	ix := buildSmall()
	ix.Remove("d1")
	if ix.Has("d1") {
		t.Error("removed doc still Has")
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d, want 3", ix.Len())
	}
	for _, res := range ix.Search("gochi cupertino", 10) {
		if res.ID == "d1" {
			t.Error("removed doc still retrievable")
		}
	}
	if got := ix.Search("gochi", 0); len(got) != 0 {
		t.Errorf("retrieval returned removed doc: %v", got)
	}
	// Re-adding revives the document.
	ix.Add(doc("d1", "Gochi Fusion Tapas", "back in business in cupertino"))
	if !ix.Has("d1") || ix.Len() != 4 {
		t.Errorf("revival failed: has=%v len=%d", ix.Has("d1"), ix.Len())
	}
	if got := ix.Search("gochi", 0); len(got) != 1 {
		t.Errorf("revived doc not retrievable: %v", got)
	}
	// Removing an unknown ID is a no-op.
	ix.Remove("never-existed")
	if ix.Len() != 4 {
		t.Error("no-op remove changed Len")
	}
}

func TestRemoveAffectsDF(t *testing.T) {
	ix := buildSmall()
	before := ix.DF("cupertino")
	ix.Remove("d3")
	if after := ix.DF("cupertino"); after != before-1 {
		t.Errorf("DF %d -> %d, want decrement", before, after)
	}
}

// TestAddPreparedMatchesAdd is the parallel-build contract: preparing
// documents concurrently and merging them in the same order must produce an
// index indistinguishable from sequential Add — same stats, same rankings.
func TestAddPreparedMatchesAdd(t *testing.T) {
	docs := []Document{
		doc("d1", "Gochi Fusion Tapas", "japanese izakaya in cupertino with small plates and sake"),
		doc("d2", "Birk's Steakhouse", "american steak house in santa clara near zipcode 95054"),
		doc("d3", "Pizza My Heart", "pizza by the slice in cupertino and san jose"),
		doc("d4", "Cupertino city guide", "restaurants parks and schools of cupertino california"),
	}
	seq := New()
	for _, d := range docs {
		seq.Add(d)
	}

	par := New()
	prepared := make([]PreparedDoc, len(docs))
	var wg sync.WaitGroup
	for i := range docs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prepared[i] = Prepare(docs[i])
		}(i)
	}
	wg.Wait()
	for _, pd := range prepared {
		par.AddPrepared(pd)
	}

	if seq.Len() != par.Len() || seq.Terms() != par.Terms() {
		t.Fatalf("stats diverge: %d/%d docs, %d/%d terms",
			seq.Len(), par.Len(), seq.Terms(), par.Terms())
	}
	for _, q := range []string{"cupertino", "gochi cupertino", "pizza slice", "steak 95054"} {
		if !reflect.DeepEqual(seq.Search(q, 10), par.Search(q, 10)) {
			t.Errorf("Search(%q) diverges between Add and AddPrepared", q)
		}
	}
}
