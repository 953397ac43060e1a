package match

import (
	"math"
	"sort"
	"sync"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
)

// TextMatcher matches a free-text fragment (a review, a blog mention) to the
// structured record it is "about" (§4.2 "Matching"): a domain-centric
// generative model of text. Each record defines a unigram language model
// over its attribute tokens, weighted per attribute (name tokens count more
// than menu tokens); a document is scored by the smoothed mixture of the
// record model and a background model built from the whole record corpus.
//
// Scoring is decomposed per token: a record-independent "absent" penalty
// (the token is not in the record's model) plus a per-(record, token) delta
// for records that do contain it. The deltas are precomputed once and laid
// out along the inverted index, so MatchTokens accumulates sparse per-record
// sums driven by postings instead of computing a log-likelihood per
// (candidate × token) pair, then exactly rescores the few candidates that
// can still reach the top-k / minScore threshold. The pruning is lossless:
// results are bit-identical to the retained naive scorer
// (matchTokensReference), which the property tests cross-check.
//
// All state (per-record models, background model, inverted token index, the
// frozen score table) is built by NewTextMatcher or frozen on first use;
// Match and Best only read it, so one matcher is safe for any number of
// concurrent scoring goroutines — the link stage of the parallel build
// pipeline builds the matcher once and fans page scoring out over its
// worker pool. Mutating the exported tuning fields after construction is
// not synchronized and Lambda is frozen into the score table on the first
// match; set them before sharing the matcher.
type TextMatcher struct {
	// Lambda is the record-model mixture weight (default 0.7).
	Lambda float64
	// AttrWeights scale each attribute's token contributions; attributes
	// absent from the map get weight 1.
	AttrWeights map[string]float64
	// MinInformative is the minimum number of text tokens that occur in any
	// record's vocabulary for a match to be attempted (default 4): a page
	// sharing only a word or two with the corpus is not "about" anything.
	MinInformative int

	records []*lrec.Record
	models  []map[string]float64 // per-record token probabilities
	bg      map[string]float64   // background token probabilities
	bgTotal float64
	// candidate index: token -> record indexes containing it
	invIndex map[string][]int

	freezeOnce sync.Once
	table      map[string]*tokenScore
	tableLam   float64 // Lambda captured at freeze time
	scratch    sync.Pool
}

// tokenScore is the frozen per-token score decomposition. For a text token t
// and record i, the log-likelihood-ratio contribution is absent when i's
// model lacks t and absent+delta[j] (up to rounding) when invIndex[t][j] == i.
type tokenScore struct {
	absent float64 // contribution of t for a record without it
	maxAbs float64 // max |contribution| over absent and all present records
	recs   []int   // shares the invIndex postings slice
	delta  []float64
}

// DefaultAttrWeights reflect how strongly each restaurant attribute
// identifies the subject of a review.
func DefaultAttrWeights() map[string]float64 {
	return map[string]float64{
		"name": 5, "street": 2, "city": 1.5, "menu": 1, "cuisine": 1,
		"title": 5, "brand": 2, "model": 3,
	}
}

// NewTextMatcher builds the matcher over a record corpus.
func NewTextMatcher(records []*lrec.Record) *TextMatcher {
	tm := &TextMatcher{
		Lambda:         0.7,
		AttrWeights:    DefaultAttrWeights(),
		MinInformative: 4,
		records:        records,
		invIndex:       make(map[string][]int),
		bg:             make(map[string]float64),
	}
	tm.scratch.New = func() any { return new(matchScratch) }
	// Model tokens recur across records (cuisine words, street/city names,
	// menu vocabulary), so intern them: every record's model map then keys
	// into one shared string per distinct token instead of retaining its own
	// copy sliced from the attribute value.
	intern := make(map[string]string)
	var toks []string
	for i, r := range records {
		model := make(map[string]float64)
		var total float64
		for _, key := range r.Keys() {
			w := tm.AttrWeights[key]
			if w == 0 {
				w = 1
			}
			for _, v := range r.All(key) {
				toks = textproc.TokenizeInto(v.Value, toks[:0])
				toks = textproc.StemInPlace(textproc.RemoveStopwordsInPlace(toks))
				for _, t := range toks {
					ti, ok := intern[t]
					if !ok {
						intern[t] = t
						ti = t
					}
					model[ti] += w
					total += w
				}
			}
		}
		for t := range model {
			model[t] /= total
			tm.invIndex[t] = append(tm.invIndex[t], i)
			tm.bg[t] += model[t]
			tm.bgTotal += model[t]
		}
		tm.models = append(tm.models, model)
	}
	return tm
}

// scoreFloor is the smoothing floor added to every probability before the
// log ratio, matching the naive scorer exactly.
const scoreFloor = 1e-7

// tokenContrib is the per-token log-likelihood ratio of one record for one
// text token. Both the frozen score table and the exact rescore (and the
// naive reference scorer) go through this one function so every path
// evaluates the identical floating-point instruction sequence — bit-equal
// results even on architectures where the compiler fuses multiply-adds.
func tokenContrib(lambda, model, bgMass, bgTotal float64) float64 {
	pBg := bgMass/bgTotal + scoreFloor
	p := lambda*model + (1-lambda)*pBg
	// Log-likelihood ratio against pure background: tokens absent from the
	// record model pull the score down only mildly, tokens unique to the
	// record pull it up strongly.
	return math.Log((p + scoreFloor) / (pBg + scoreFloor))
}

// freeze builds the per-token score decomposition once, on first use, so a
// Lambda set after construction but before the first match is honored.
func (tm *TextMatcher) freeze() {
	tm.freezeOnce.Do(func() {
		tm.tableLam = tm.Lambda
		tm.table = make(map[string]*tokenScore, len(tm.invIndex))
		for t, recs := range tm.invIndex {
			ts := &tokenScore{
				absent: tokenContrib(tm.tableLam, 0, tm.bg[t], tm.bgTotal),
				recs:   recs,
				delta:  make([]float64, len(recs)),
			}
			ts.maxAbs = math.Abs(ts.absent)
			for j, i := range recs {
				c := tokenContrib(tm.tableLam, tm.models[i][t], tm.bg[t], tm.bgTotal)
				ts.delta[j] = c - ts.absent
				if a := math.Abs(c); a > ts.maxAbs {
					ts.maxAbs = a
				}
			}
			tm.table[t] = ts
		}
	})
}

// matchScratch holds the reusable per-call buffers of matchTokens. acc/mark
// are sized to the record corpus and reset by generation counter, so a call
// touching 200 of 50k records pays for 200, not 50k.
type matchScratch struct {
	gen     uint64
	mark    []uint64
	acc     []float64 // per-record approximate delta sum, valid if mark==gen
	touched []int     // record indexes with mark==gen, in first-touch order
	counts  map[string]int
	uniq    []string
	tokens  []string
	bestK   []float64
}

// ScoredRecord is one ranked match.
type ScoredRecord struct {
	Record *lrec.Record
	Score  float64 // mean per-token log-likelihood ratio vs background
}

// Match returns the k records most likely to be the subject of text,
// best first. Records sharing no token with the text are never candidates.
func (tm *TextMatcher) Match(text string, k int) []ScoredRecord {
	toks := textproc.RemoveStopwordsInPlace(textproc.Tokenize(text))
	return tm.MatchTokens(textproc.StemInPlace(toks), k)
}

// MatchTokens is Match over a pre-analyzed token stream (Tokenize →
// RemoveStopwords → Stem, the pipeline PageAnalysis.MainTokens produces).
// The input is read-only, so one token slice may be shared across scoring
// goroutines.
func (tm *TextMatcher) MatchTokens(all []string, k int) []ScoredRecord {
	return tm.matchTokens(all, k, math.Inf(-1))
}

// matchTokens scores candidates in two phases. Phase 1 accumulates an
// approximate score per candidate from the frozen decomposition: every
// candidate starts from the shared all-tokens-absent base and each posting
// of each distinct text token adds count × delta. Phase 2 walks candidates
// in approximate-score order and rescores them exactly (same token order and
// arithmetic as the naive scorer); once the k-th best exact score — or
// minScore — exceeds every remaining candidate's upper bound
// (approx + slack), the rest are abandoned. slack is a proven bound on the
// float summation error (see DESIGN.md §7), so pruning never changes the
// result: pruned candidates are strictly below the final k-th exact score,
// and below minScore for the Best path, where the caller discards such a
// top-1 anyway.
func (tm *TextMatcher) matchTokens(all []string, k int, minScore float64) []ScoredRecord {
	if len(all) == 0 || len(tm.records) == 0 {
		return nil
	}
	tm.freeze()
	sc := tm.scratch.Get().(*matchScratch)
	defer tm.scratch.Put(sc)
	if sc.counts == nil {
		sc.counts = make(map[string]int)
	}
	if len(sc.mark) < len(tm.records) {
		sc.mark = make([]uint64, len(tm.records))
		sc.acc = make([]float64, len(tm.records))
	}
	sc.gen++
	gen := sc.gen

	// Score only informative tokens — those in some record's vocabulary.
	// Generic prose carries no signal about which record the text is about
	// and would only dilute the per-token likelihood ratio.
	tokens := sc.tokens[:0]
	uniq := sc.uniq[:0]
	for _, t := range all {
		ts := tm.table[t]
		if ts == nil {
			continue
		}
		tokens = append(tokens, t)
		if sc.counts[t] == 0 {
			uniq = append(uniq, t)
		}
		sc.counts[t]++
	}
	sc.tokens, sc.uniq = tokens, uniq
	defer clear(sc.counts)
	if len(tokens) < tm.MinInformative {
		return nil
	}

	// Phase 1: sparse accumulation. base is the score of a hypothetical
	// record containing none of the tokens; postings add the deltas. maxSum
	// accumulates Σ count×maxAbs — the magnitude budget T of the slack bound.
	var base, maxSum float64
	touched := sc.touched[:0]
	for _, t := range uniq {
		ts := tm.table[t]
		cnt := float64(sc.counts[t])
		base += cnt * ts.absent
		maxSum += cnt * ts.maxAbs
		for j, i := range ts.recs {
			if sc.mark[i] != gen {
				sc.mark[i] = gen
				sc.acc[i] = 0
				touched = append(touched, i)
			}
			sc.acc[i] += cnt * ts.delta[j]
		}
	}
	sc.touched = touched
	n := float64(len(tokens))
	// Upper bound on |approx − exact| on the mean-per-token scale. The true
	// error of re-associating ≤ 2·len(tokens)+1 summands of total magnitude
	// ≤ 3T, plus the delta and division roundings, is below ~11·ε·(T+1);
	// 64 leaves ≥5× headroom (DESIGN.md §7 has the derivation).
	slack := 64 * 0x1p-52 * (maxSum + 1)
	// A candidate whose upper bound is below minScore can never be rescored:
	// phase 2's bar is at least minScore, and in descending order such a
	// candidate sorts after the one the loop breaks at. Dropping it here
	// keeps it out of the sort, which on a large corpus is most of the cost
	// (the touched set is every record sharing any token with the page).
	live := touched[:0]
	for _, i := range touched {
		sc.acc[i] = (base + sc.acc[i]) / n
		if !(sc.acc[i]+slack < minScore) {
			live = append(live, i)
		}
	}
	touched = live

	// Candidates in approximate-score order (best first), index ascending on
	// ties, so the prune threshold rises as fast as possible and the visit
	// order is deterministic.
	sort.Slice(touched, func(a, b int) bool {
		ia, ib := touched[a], touched[b]
		if sc.acc[ia] != sc.acc[ib] {
			return sc.acc[ia] > sc.acc[ib]
		}
		return ia < ib
	})

	// Phase 2: exact rescore with pruning. bestK tracks the k highest exact
	// scores seen so far (descending); once full, its last entry is the bar
	// a candidate must reach to appear in the final top-k.
	bestK := sc.bestK[:0]
	scored := make([]ScoredRecord, 0, min(len(touched), max(k, 1)*4))
	for _, i := range touched {
		thr := minScore
		if k > 0 && len(bestK) == k && bestK[k-1] > thr {
			thr = bestK[k-1]
		}
		if sc.acc[i]+slack < thr {
			break // every remaining candidate's upper bound is lower still
		}
		s := tm.rescore(i, tokens) / n
		scored = append(scored, ScoredRecord{Record: tm.records[i], Score: s})
		if k > 0 {
			pos := sort.Search(len(bestK), func(j int) bool { return bestK[j] < s })
			if pos < k {
				if len(bestK) < k {
					bestK = append(bestK, 0)
				}
				copy(bestK[pos+1:], bestK[pos:])
				bestK[pos] = s
			}
		}
	}
	sc.bestK = bestK
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].Score != scored[b].Score {
			return scored[a].Score > scored[b].Score
		}
		return scored[a].Record.ID < scored[b].Record.ID
	})
	if k > 0 && len(scored) > k {
		scored = scored[:k]
	}
	if len(scored) == 0 {
		return nil
	}
	return scored
}

// rescore computes record i's exact total log-likelihood ratio over tokens,
// in token order — the identical summation the naive scorer performs, via
// the same tokenContrib helper (absent contributions come from the table,
// where they were produced by the same call with model = 0).
func (tm *TextMatcher) rescore(i int, tokens []string) float64 {
	model := tm.models[i]
	var ll float64
	for _, t := range tokens {
		if m, ok := model[t]; ok {
			ll += tokenContrib(tm.tableLam, m, tm.bg[t], tm.bgTotal)
		} else {
			ll += tm.table[t].absent
		}
	}
	return ll
}

// Best returns the single best match and whether its score clears minScore.
func (tm *TextMatcher) Best(text string, minScore float64) (*lrec.Record, bool) {
	toks := textproc.RemoveStopwordsInPlace(textproc.Tokenize(text))
	return tm.BestTokens(textproc.StemInPlace(toks), minScore)
}

// BestTokens is Best over a pre-analyzed token stream. minScore is also a
// pruning threshold: candidates provably below it are never fully scored.
func (tm *TextMatcher) BestTokens(toks []string, minScore float64) (*lrec.Record, bool) {
	top := tm.matchTokens(toks, 1, minScore)
	if len(top) == 0 || top[0].Score < minScore {
		return nil, false
	}
	return top[0].Record, true
}
