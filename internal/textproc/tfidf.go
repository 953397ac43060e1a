package textproc

import (
	"math"
	"sort"
)

// Vector is a sparse term-weight vector.
type Vector map[string]float64

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, w := range v {
		s += w * w
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of two sparse vectors.
func Cosine(a, b Vector) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	// Iterate over the smaller vector.
	if len(b) < len(a) {
		a, b = b, a
	}
	var dot float64
	for t, w := range a {
		if w2, ok := b[t]; ok {
			dot += w * w2
		}
	}
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// TermCounts returns the term-frequency vector of toks.
func TermCounts(toks []string) Vector {
	v := make(Vector, len(toks))
	for _, t := range toks {
		v[t]++
	}
	return v
}

// Corpus accumulates document frequencies and produces TF-IDF vectors.
// It underlies "related pages" (Table 1) and document-similarity features.
type Corpus struct {
	df   map[string]int
	docs int
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{df: make(map[string]int)}
}

// Add registers one document's tokens with the corpus statistics.
func (c *Corpus) Add(toks []string) {
	c.docs++
	for t := range TokenSet(toks) {
		c.df[t]++
	}
}

// IDF returns the smoothed inverse document frequency of term t:
// log(1 + N/(1+df)).
func (c *Corpus) IDF(t string) float64 {
	return math.Log(1 + float64(c.docs)/float64(1+c.df[t]))
}

// Vectorize returns the TF-IDF vector of toks, with log-scaled TF.
func (c *Corpus) Vectorize(toks []string) Vector {
	tf := TermCounts(toks)
	v := make(Vector, len(tf))
	for t, f := range tf {
		v[t] = (1 + math.Log(f)) * c.IDF(t)
	}
	return v
}

// TopTerms returns the n highest-weighted terms of v in descending weight
// order (ties broken lexicographically, for determinism).
func TopTerms(v Vector, n int) []string {
	type tw struct {
		t string
		w float64
	}
	all := make([]tw, 0, len(v))
	for t, w := range v {
		all = append(all, tw{t, w})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].t < all[j].t
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].t
	}
	return out
}
