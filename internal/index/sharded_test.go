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

func buildSharded(n int, docs []Document) *Sharded {
	sx := NewSharded(n)
	for _, d := range docs {
		sx.Add(d)
	}
	return sx
}

// TestShardedSearchExactScores is the sharding contract: ranked retrieval
// over a hash-partitioned index must return bit-identical scores and order
// to a one-shard index, because the BM25 statistics (df, doc count, field
// lengths) are summed over every shard before any shard scores.
func TestShardedSearchExactScores(t *testing.T) {
	docs := corpusDocs(120)
	flat := buildSharded(1, docs)
	queries := []string{
		"pizza cupertino", "sushi ramen spicy", "vegan brunch patio",
		"izakaya", "taco delivery menu", "review", "fusion tapas grill",
		"pizza pizza pizza", "nosuchterm", "curry noodle bakery jose",
	}
	for _, n := range []int{2, 4, 16} {
		sx := buildSharded(n, docs)
		if got := sx.NumShards(); got != n {
			t.Fatalf("NumShards = %d, want %d", got, n)
		}
		if flat.Len() != sx.Len() || flat.Terms() != sx.Terms() || flat.Postings() != sx.Postings() {
			t.Fatalf("%d shards: corpus stats diverge: %d/%d/%d docs/terms/postings vs %d/%d/%d",
				n, sx.Len(), sx.Terms(), sx.Postings(), flat.Len(), flat.Terms(), flat.Postings())
		}
		for _, q := range queries {
			for _, k := range []int{1, 5, 10, 0} {
				a, b := flat.Search(q, k), sx.Search(q, k)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%d shards: Search(%q, %d) diverges:\n flat: %+v\nshard: %+v", n, q, k, a, b)
				}
			}
		}
	}
}

// TestShardedRemoveKeepsEquality: removals must stay routed and global
// statistics must update so sharded and flat remain score-identical.
func TestShardedRemoveKeepsEquality(t *testing.T) {
	docs := corpusDocs(60)
	flat, sx := buildSharded(1, docs), buildSharded(4, docs)
	for i := 0; i < len(docs); i += 3 {
		flat.Remove(docs[i].ID)
		sx.Remove(docs[i].ID)
	}
	if flat.Len() != sx.Len() {
		t.Fatalf("Len after removals: %d vs %d", flat.Len(), sx.Len())
	}
	for _, q := range []string{"pizza", "sushi ramen", "vegan brunch patio"} {
		if a, b := flat.Search(q, 10), sx.Search(q, 10); !reflect.DeepEqual(a, b) {
			t.Errorf("Search(%q) after removals diverges:\n flat: %+v\nshard: %+v", q, a, b)
		}
	}
	// Re-adding a removed doc must also stay equivalent.
	flat.Add(docs[0])
	sx.Add(docs[0])
	if a, b := flat.Search("pizza", 10), sx.Search("pizza", 10); !reflect.DeepEqual(a, b) {
		t.Errorf("Search after re-add diverges:\n flat: %+v\nshard: %+v", a, b)
	}
}

// TestShardedBatchWorkerInvariance: AddPreparedBatch must produce the same
// index regardless of worker count (doc numbering inside each shard follows
// input order, not goroutine scheduling).
func TestShardedBatchWorkerInvariance(t *testing.T) {
	docs := corpusDocs(80)
	prep := make([]PreparedDoc, len(docs))
	for i, d := range docs {
		prep[i] = Prepare(d)
	}
	build := func(workers int) *Sharded {
		sx := NewSharded(4)
		sx.AddPreparedBatch(prep, workers)
		return sx
	}
	a, b := build(1), build(8)
	if a.Len() != b.Len() || a.Terms() != b.Terms() || a.Postings() != b.Postings() {
		t.Fatalf("stats diverge across workers: %d/%d/%d vs %d/%d/%d",
			a.Len(), a.Terms(), a.Postings(), b.Len(), b.Terms(), b.Postings())
	}
	if !reflect.DeepEqual(a.ShardEpochs(), b.ShardEpochs()) {
		t.Errorf("shard epochs diverge: %v vs %v", a.ShardEpochs(), b.ShardEpochs())
	}
	for _, q := range []string{"pizza cupertino", "izakaya tapas", "review menu"} {
		if x, y := a.Search(q, 10), b.Search(q, 10); !reflect.DeepEqual(x, y) {
			t.Errorf("Search(%q) diverges across workers:\n w1: %+v\n w8: %+v", q, x, y)
		}
	}
}

// TestMergeRanked covers both merges directly — the oracle's k-way heap
// merge and SearchCost's two-list merge folded over the lists in shard
// order: global order by (score desc, id asc), k truncation, and empty-input
// handling.
func TestMergeRanked(t *testing.T) {
	fold := func(lists [][]Result, k int) []Result {
		var out []Result
		for _, l := range lists {
			out = mergeTwo(out, l, k)
		}
		return out
	}
	for name, merge := range map[string]func([][]Result, int) []Result{"heap": mergeRanked, "two-list": fold} {
		lists := [][]Result{
			{{ID: "a", Score: 9}, {ID: "d", Score: 3}},
			{{ID: "b", Score: 9}, {ID: "c", Score: 5}, {ID: "f", Score: 1}},
			nil,
			{{ID: "e", Score: 3}},
		}
		got := merge(lists, 0)
		want := []Result{
			{ID: "a", Score: 9}, {ID: "b", Score: 9}, {ID: "c", Score: 5},
			{ID: "d", Score: 3}, {ID: "e", Score: 3}, {ID: "f", Score: 1},
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merge = %+v, want %+v", name, got, want)
		}
		if got := merge(lists, 2); !reflect.DeepEqual(got, want[:2]) {
			t.Fatalf("%s: merge k=2 = %+v, want %+v", name, got, want[:2])
		}
		if got := merge(lists[1:2], 2); !reflect.DeepEqual(got, lists[1][:2]) {
			t.Fatalf("%s: merge of one list k=2 = %+v, want %+v", name, got, lists[1][:2])
		}
		if got := merge(nil, 5); got != nil {
			t.Fatalf("%s: merge(nil) = %+v, want nil", name, got)
		}
		if got := merge([][]Result{nil, nil}, 5); got != nil {
			t.Fatalf("%s: merge(all-nil) = %+v, want nil", name, got)
		}
		// One shard answered with an empty (non-nil) list: the merge
		// mirrors the unsharded index and stays non-nil.
		if got := merge([][]Result{nil, {}}, 5); got == nil || len(got) != 0 {
			t.Fatalf("%s: merge(nil+empty) = %#v, want non-nil empty", name, got)
		}
	}
}
