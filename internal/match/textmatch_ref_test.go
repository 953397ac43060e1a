package match

import "sort"

// matchTokensReference is the naive §4.2 scorer MatchTokens replaced: one
// log-likelihood term per (candidate × token) pair, summed in token order.
// It is retained as the correctness oracle — the decomposed, pruned scorer
// must return bit-identical scores and ordering, which the property tests
// in textmatch_prop_test.go cross-check on randomized corpora. It shares
// tokenContrib with the fast path so both evaluate the same floating-point
// instruction sequence.
func (tm *TextMatcher) matchTokensReference(all []string, k int) []ScoredRecord {
	if len(all) == 0 || len(tm.records) == 0 {
		return nil
	}
	tokens := all[:0:0]
	for _, t := range all {
		if len(tm.invIndex[t]) > 0 {
			tokens = append(tokens, t)
		}
	}
	if len(tokens) < tm.MinInformative {
		return nil
	}
	candSet := make(map[int]bool)
	for _, t := range tokens {
		for _, i := range tm.invIndex[t] {
			candSet[i] = true
		}
	}
	if len(candSet) == 0 {
		return nil
	}
	cands := make([]int, 0, len(candSet))
	for i := range candSet {
		cands = append(cands, i)
	}
	sort.Ints(cands)

	scored := make([]ScoredRecord, 0, len(cands))
	for _, i := range cands {
		model := tm.models[i]
		var ll float64
		for _, t := range tokens {
			ll += tokenContrib(tm.Lambda, model[t], tm.bg[t], tm.bgTotal)
		}
		scored = append(scored, ScoredRecord{
			Record: tm.records[i],
			Score:  ll / float64(len(tokens)),
		})
	}
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].Score != scored[b].Score {
			return scored[a].Score > scored[b].Score
		}
		return scored[a].Record.ID < scored[b].Record.ID
	})
	if k > 0 && len(scored) > k {
		scored = scored[:k]
	}
	return scored
}
