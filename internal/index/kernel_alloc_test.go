//go:build !race

package index

import (
	"fmt"
	"testing"
)

// Not built under the race detector: there sync.Pool drops a share of what is
// put back, so a ceiling that counts on the pooled scratch does not hold.

// TestSearchAllocsIndependentOfTouchedSet pins the kernel's allocation
// behaviour: beyond tokenizing the query, a ranked query allocates its result
// slice and nothing that grows with the number of documents it scores.
func TestSearchAllocsIndependentOfTouchedSet(t *testing.T) {
	const query, k = "pizza cupertino", 10
	tokAllocs := testing.AllocsPerRun(200, func() { tokenize(query) })
	var perSize []float64
	for _, n := range []int{200, 5000} {
		ix := New()
		for i := 0; i < n; i++ {
			ix.Add(Document{ID: fmt.Sprintf("d%05d", i), Fields: []Field{
				{Name: "title", Text: "pizza house", Boost: 2},
				{Name: "body", Text: fmt.Sprintf("pizza in cupertino number %d", i)},
			}})
		}
		if got := len(ix.Search(query, 0)); got != n {
			t.Fatalf("query touches %d of %d docs", got, n)
		}
		allocs := testing.AllocsPerRun(200, func() { ix.Search(query, k) })
		if want := tokAllocs + 1; allocs > want {
			t.Errorf("%d docs: Search allocates %.0f times, tokenizing %.0f: want at most %.0f",
				n, allocs, tokAllocs, want)
		}
		perSize = append(perSize, allocs)
	}
	if perSize[0] != perSize[1] {
		t.Errorf("allocations grow with the touched set: %v", perSize)
	}
}
