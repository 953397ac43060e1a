package index

import (
	"math"
	"sort"
)

// The map-and-sort BM25F kernel the dense kernel in kernel.go replaced,
// retained verbatim as the oracle: per-query map accumulators, a seen-set
// document frequency, a full sort of every touched document. Only the
// tombstone probe follows the index's current representation. No non-test
// code calls it, and it shares no statistics code with SearchCost.

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

// localStats carries the corpus-level statistics BM25F scoring depends on:
// doc count, per-term document frequency, and per-field total length.
type localStats struct {
	ndocs    int
	df       map[string]int // query term -> live docs containing it
	fieldLen map[string]int // field name -> total token count
}
