// Package match implements entity matching for the web of concepts (§6,
// §7.2): Fellegi–Sunter probabilistic pairwise matching over attribute
// similarities, blocking to avoid the quadratic pair explosion, iterative
// collective matching that lets accepted matches trigger new ones, and a
// domain-centric generative text model that matches free text (reviews,
// blog mentions) to structured records.
package match

import (
	"math"
	"sort"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
)

// Agreement levels produced by attribute comparison.
type Agreement int

// Agreement outcomes for one attribute comparison.
const (
	AgreementMissing Agreement = iota // one or both sides lack the attribute
	Agree
	Disagree
)

// Comparator measures agreement of one attribute between two records.
type Comparator struct {
	Key string
	// Sim maps two non-empty values to [0,1].
	Sim func(a, b string) float64
	// AgreeAt is the similarity threshold counted as agreement.
	AgreeAt float64
	// M is P(agree | same entity); U is P(agree | different entities).
	// log(M/U) is the agreement weight; log((1-M)/(1-U)) the disagreement
	// penalty, per Fellegi–Sunter.
	M, U float64
	// MostSpecific compares only the most specific (longest) value on each
	// side instead of the best pairing over all values. Name comparators
	// need this: after collective merging, both clusters may hold the same
	// truncated variant ("Old Hearth"), and best-pairing would manufacture
	// agreement between "Old Hearth Diner" and "Old Hearth Sushi Bar".
	MostSpecific bool
}

// Weight returns the log-likelihood-ratio contribution of this comparator
// for the given agreement outcome.
func (c Comparator) Weight(a Agreement) float64 {
	switch a {
	case Agree:
		return math.Log(c.M / c.U)
	case Disagree:
		return math.Log((1 - c.M) / (1 - c.U))
	default:
		return 0 // missing data is uninformative
	}
}

// equalNorm is exact equality after normalization.
func equalNorm(a, b string) float64 {
	if textproc.Normalize(a) == textproc.Normalize(b) {
		return 1
	}
	return 0
}

// digitsEqual compares only the digits of two strings (phone formats).
func digitsEqual(a, b string) float64 {
	if onlyDigits(a) == onlyDigits(b) {
		return 1
	}
	return 0
}

func onlyDigits(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// nameSim combines trigram and token overlap, tolerant of the suffix
// dropping and decoration that sources apply to business names.
func nameSim(a, b string) float64 {
	an, bn := textproc.Normalize(a), textproc.Normalize(b)
	tri := textproc.TrigramSim(an, bn)
	// Containment: "gochi fusion tapas" vs "gochi" — score the shorter
	// against its best containment in the longer.
	at, bt := textproc.TokenSet(textproc.Tokenize(an)), textproc.TokenSet(textproc.Tokenize(bn))
	small, large := at, bt
	if len(bt) < len(at) {
		small, large = bt, at
	}
	contained := 0
	for t := range small {
		if large[t] {
			contained++
		}
	}
	var cont float64
	if len(small) > 0 {
		cont = float64(contained) / float64(len(small))
	}
	if cont > tri {
		return cont
	}
	return tri
}

// RestaurantComparators returns the standard comparator set for the
// restaurant concept. M/U defaults reflect the synthetic corpus's noise
// profile and can be re-estimated with EstimateMU.
func RestaurantComparators() []Comparator {
	return []Comparator{
		{Key: "name", Sim: nameSim, AgreeAt: 0.75, M: 0.95, U: 0.02, MostSpecific: true},
		// U(zip) accounts for blocking: candidate pairs are largely generated
		// by shared zip, so zip agreement among non-matches is common.
		{Key: "zip", Sim: equalNorm, AgreeAt: 1, M: 0.97, U: 0.10},
		{Key: "phone", Sim: digitsEqual, AgreeAt: 1, M: 0.90, U: 0.001},
		{Key: "street", Sim: textproc.TrigramSim, AgreeAt: 0.8, M: 0.85, U: 0.01},
		{Key: "city", Sim: equalNorm, AgreeAt: 1, M: 0.98, U: 0.15},
		{Key: "cuisine", Sim: equalNorm, AgreeAt: 1, M: 0.9, U: 0.12},
	}
}

// PublicationComparators returns the comparator set for publications.
func PublicationComparators() []Comparator {
	return []Comparator{
		{Key: "title", Sim: nameSim, AgreeAt: 0.85, M: 0.97, U: 0.005, MostSpecific: true},
		{Key: "venue", Sim: equalNorm, AgreeAt: 1, M: 0.95, U: 0.15},
		{Key: "year", Sim: equalNorm, AgreeAt: 1, M: 0.97, U: 0.15},
	}
}

// Decision is the three-way Fellegi–Sunter outcome.
type Decision int

// Decisions.
const (
	NonMatch Decision = iota
	Possible
	Match
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Match:
		return "match"
	case Possible:
		return "possible"
	default:
		return "nonmatch"
	}
}

// Matcher scores record pairs with a comparator set and two thresholds on
// the summed log-likelihood ratio.
type Matcher struct {
	Comparators []Comparator
	// Upper: scores >= Upper are matches; scores <= Lower are non-matches;
	// in between is the clerical-review band ("possible").
	Upper, Lower float64
}

// NewMatcher returns a matcher with thresholds suited to the comparator
// weights (Upper 4.5 ≈ odds 90:1, Lower 0).
func NewMatcher(comps []Comparator) *Matcher {
	return &Matcher{Comparators: comps, Upper: 4.5, Lower: 0}
}

// CompareAttr compares one attribute of two records.
func CompareAttr(c Comparator, a, b *lrec.Record) Agreement {
	if !a.Has(c.Key) || !b.Has(c.Key) {
		return AgreementMissing
	}
	p := prepare(c)
	return p.agreement(p.profileAttr(a.All(c.Key)), p.profileAttr(b.All(c.Key)))
}

// mostSpecific picks the longest value (by token count, then length, then
// lexicographically) — the most specific known form of a name.
func mostSpecific(vals []lrec.AttrValue) string {
	best := ""
	bestToks := -1
	for _, v := range vals {
		n := len(textproc.Tokenize(v.Value))
		if n > bestToks ||
			(n == bestToks && (len(v.Value) > len(best) ||
				(len(v.Value) == len(best) && v.Value < best))) {
			best = v.Value
			bestToks = n
		}
	}
	return best
}

// Score returns the total log-likelihood ratio for the pair.
func (m *Matcher) Score(a, b *lrec.Record) float64 {
	s := m.scorer()
	return s.score(s.profile(a), s.profile(b))
}

// Decide classifies the pair.
func (m *Matcher) Decide(a, b *lrec.Record) Decision {
	s := m.Score(a, b)
	switch {
	case s >= m.Upper:
		return Match
	case s <= m.Lower:
		return NonMatch
	default:
		return Possible
	}
}

// LabeledPair is a training pair for M/U estimation.
type LabeledPair struct {
	A, B *lrec.Record
	Same bool
}

// EstimateMU re-estimates each comparator's M and U probabilities from
// labeled pairs (the supervised variant of Fellegi–Sunter parameter
// fitting), with add-one smoothing. Comparators absent from the data keep
// their priors.
func EstimateMU(comps []Comparator, pairs []LabeledPair) []Comparator {
	out := make([]Comparator, len(comps))
	copy(out, comps)
	for i, c := range out {
		agreeSame, totalSame := 1.0, 2.0 // smoothing
		agreeDiff, totalDiff := 1.0, 2.0
		for _, p := range pairs {
			a := CompareAttr(c, p.A, p.B)
			if a == AgreementMissing {
				continue
			}
			if p.Same {
				totalSame++
				if a == Agree {
					agreeSame++
				}
			} else {
				totalDiff++
				if a == Agree {
					agreeDiff++
				}
			}
		}
		if totalSame > 2 {
			out[i].M = clampProb(agreeSame / totalSame)
		}
		if totalDiff > 2 {
			out[i].U = clampProb(agreeDiff / totalDiff)
		}
	}
	return out
}

func clampProb(p float64) float64 {
	const eps = 1e-4
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// Pair is an unordered candidate record pair (IDs sorted).
type Pair struct {
	A, B string
}

// MakePair returns the canonical ordering of a pair.
func MakePair(a, b string) Pair {
	if b < a {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// BlockBy groups records by one or more keys and emits all within-block
// pairs, deduplicated. Key functions returning "" exclude the record from
// that blocking pass.
func BlockBy(records []*lrec.Record, keys ...func(*lrec.Record) string) []Pair {
	seen := make(map[Pair]bool)
	var out []Pair
	for _, key := range keys {
		blocks := make(map[string][]string)
		for _, r := range records {
			k := key(r)
			if k == "" {
				continue
			}
			blocks[k] = append(blocks[k], r.ID)
		}
		// Deterministic block order.
		bkeys := make([]string, 0, len(blocks))
		for k := range blocks {
			bkeys = append(bkeys, k)
		}
		sort.Strings(bkeys)
		for _, k := range bkeys {
			ids := blocks[k]
			sort.Strings(ids)
			for i := 0; i < len(ids); i++ {
				for j := i + 1; j < len(ids); j++ {
					p := MakePair(ids[i], ids[j])
					if !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// ZipBlock blocks on the record's zip value.
func ZipBlock(r *lrec.Record) string { return textproc.Normalize(r.Get("zip")) }

// NameTokenBlock blocks on the first non-stopword name token.
func NameTokenBlock(r *lrec.Record) string {
	name := r.Get("name")
	if name == "" {
		name = r.Get("title")
	}
	for _, t := range textproc.RemoveStopwords(textproc.Tokenize(name)) {
		return t
	}
	return ""
}

// PhoneBlock blocks on phone digits.
func PhoneBlock(r *lrec.Record) string { return onlyDigits(r.Get("phone")) }
