package match

import (
	"reflect"
	"slices"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
)

// Prepared scoring. Fellegi–Sunter compares the same record against many
// others — every stored record of its concept on upsert, every block
// neighbour in Resolve — and the comparators' work on one side of a pair
// (normalise, tokenise, pick the most specific name, cut trigrams) does not
// depend on the other side. A profile holds that work once per record; the
// scorer compares two profiles with integer merges and string equality and
// returns the value, bit for bit, that running each comparator's Sim over the
// raw strings gives. Matcher.Score, Decide and CompareAttr go through the
// same code, so there is one scoring path.

// simKind names the prepared form a comparator's Sim has, if any.
type simKind uint8

const (
	simCustom    simKind = iota // no prepared form: Sim runs on the raw values
	simEqualNorm                // equalNorm: equality of normalised values
	simDigits                   // digitsEqual: equality of digit strings
	simTrigram                  // textproc.TrigramSim: Dice over trigram sets
	simName                     // nameSim: trigram Dice or token containment
)

// Code pointers of the Sims with a prepared form. A Comparator carries its
// Sim as a plain func value, which Go cannot compare; the entry point of a
// top-level function identifies it, and any other func (a closure, a
// caller's own function) compares unequal and falls back to raw strings.
var (
	equalNormPC = reflect.ValueOf(equalNorm).Pointer()
	digitsPC    = reflect.ValueOf(digitsEqual).Pointer()
	trigramPC   = reflect.ValueOf(textproc.TrigramSim).Pointer()
	namePC      = reflect.ValueOf(nameSim).Pointer()
)

func kindOf(sim func(a, b string) float64) simKind {
	switch reflect.ValueOf(sim).Pointer() {
	case equalNormPC:
		return simEqualNorm
	case digitsPC:
		return simDigits
	case trigramPC:
		return simTrigram
	case namePC:
		return simName
	}
	return simCustom
}

// prepared is a comparator with its Sim recognised and both weights
// computed once.
type prepared struct {
	Comparator
	kind              simKind
	agreeW, disagreeW float64
}

func prepare(c Comparator) prepared {
	return prepared{Comparator: c, kind: kindOf(c.Sim), agreeW: c.Weight(Agree), disagreeW: c.Weight(Disagree)}
}

// valProfile is one attribute value in the form its comparator reads.
type valProfile struct {
	key   string   // normalised value, digit string, or the raw value for a custom Sim
	grams []uint64 // sorted distinct character trigrams (simTrigram, simName)
	toks  []string // sorted distinct tokens (simName)
}

// profile is a record prepared for one scorer: per comparator, the values it
// compares — all of them, or only the most specific for a MostSpecific
// comparator. No values means the attribute is missing.
type profile struct {
	id    string
	attrs [][]valProfile
}

func (c *prepared) profileAttr(vals []lrec.AttrValue) []valProfile {
	if len(vals) == 0 {
		return nil
	}
	if c.MostSpecific {
		return []valProfile{c.profileValue(mostSpecific(vals))}
	}
	out := make([]valProfile, len(vals))
	for i, v := range vals {
		out[i] = c.profileValue(v.Value)
	}
	return out
}

func (c *prepared) profileValue(v string) valProfile {
	switch c.kind {
	case simEqualNorm:
		return valProfile{key: textproc.Normalize(v)}
	case simDigits:
		return valProfile{key: onlyDigits(v)}
	case simTrigram:
		return valProfile{grams: trigramSet(v)}
	case simName:
		n := textproc.Normalize(v)
		toks := textproc.Tokenize(n)
		slices.Sort(toks)
		return valProfile{grams: trigramSet(n), toks: slices.Compact(toks)}
	}
	return valProfile{key: v}
}

// trigramSet is the set textproc.TrigramSim builds from s — the distinct
// grams of textproc.CharNGrams(s, 3) — as sorted integers, three 21-bit
// runes to a word. Keys hold only letters and digits, so the zero rune that
// pads the two-rune gram of an empty key ("^$") cannot collide with a real one.
func trigramSet(s string) []uint64 {
	rs := []rune("^" + textproc.NormalizeKey(s) + "$")
	if len(rs) < 3 {
		rs = append(rs, 0)
	}
	out := make([]uint64, 0, len(rs)-2)
	for i := 0; i+3 <= len(rs); i++ {
		out = append(out, uint64(rs[i])<<42|uint64(rs[i+1])<<21|uint64(rs[i+2]))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// shared counts the elements two sorted distinct slices have in common.
func shared[T uint64 | string](a, b []T) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// dice is textproc.Dice over two trigram sets (never empty).
func dice(a, b []uint64) float64 {
	return 2 * float64(shared(a, b)) / float64(len(a)+len(b))
}

// sim is c.Sim over two prepared values.
func (c *prepared) sim(a, b *valProfile) float64 {
	switch c.kind {
	case simEqualNorm, simDigits:
		if a.key == b.key {
			return 1
		}
		return 0
	case simTrigram:
		return dice(a.grams, b.grams)
	case simName:
		tri := dice(a.grams, b.grams)
		var cont float64
		if small := min(len(a.toks), len(b.toks)); small > 0 {
			cont = float64(shared(a.toks, b.toks)) / float64(small)
		}
		if cont > tri {
			return cont
		}
		return tri
	}
	return c.Sim(a.key, b.key)
}

// agreement compares one attribute of two profiles: the most specific values
// directly, otherwise the best pairing over all values.
func (c *prepared) agreement(a, b []valProfile) Agreement {
	if len(a) == 0 || len(b) == 0 {
		return AgreementMissing
	}
	if c.MostSpecific {
		if c.sim(&a[0], &b[0]) >= c.AgreeAt {
			return Agree
		}
		return Disagree
	}
	best := 0.0
	for i := range a {
		for j := range b {
			if s := c.sim(&a[i], &b[j]); s > best {
				best = s
			}
		}
	}
	if best >= c.AgreeAt {
		return Agree
	}
	return Disagree
}

func (c *prepared) weight(a, b []valProfile) float64 {
	switch c.agreement(a, b) {
	case Agree:
		return c.agreeW
	case Disagree:
		return c.disagreeW
	}
	return 0 // missing data is uninformative
}

// scorer is a Matcher prepared for profile scoring. It is derived per use
// (one Resolve, one Table, one Score call): Matcher's fields are exported and
// may change between calls.
type scorer struct {
	comps []prepared
	upper float64
}

func (m *Matcher) scorer() *scorer {
	s := &scorer{comps: make([]prepared, len(m.Comparators)), upper: m.Upper}
	for i, c := range m.Comparators {
		s.comps[i] = prepare(c)
	}
	return s
}

func (s *scorer) profile(r *lrec.Record) *profile {
	p := &profile{id: r.ID, attrs: make([][]valProfile, len(s.comps))}
	for i := range s.comps {
		p.attrs[i] = s.comps[i].profileAttr(r.All(s.comps[i].Key))
	}
	return p
}

// score is the summed log-likelihood ratio of the pair, comparators in order.
func (s *scorer) score(a, b *profile) float64 {
	var sum float64
	for i := range s.comps {
		sum += s.comps[i].weight(a.attrs[i], b.attrs[i])
	}
	return sum
}

// bound is a cheap upper bound on score: the equality comparators are
// evaluated exactly (a string compare on prepared keys), every other
// comparator present on both sides counts its better weight. It sums the same
// terms in the same order as score with each term at least score's, and
// IEEE addition is monotone in both operands, so bound ≥ score holds for the
// computed floats, not only for the reals: skipping a pair whose bound is
// below a threshold never skips a pair whose score reaches it, and needs no
// rounding slack.
func (s *scorer) bound(a, b *profile) float64 {
	var sum float64
	for i := range s.comps {
		c := &s.comps[i]
		switch {
		case len(a.attrs[i]) == 0 || len(b.attrs[i]) == 0:
		case c.kind == simEqualNorm || c.kind == simDigits:
			sum += c.weight(a.attrs[i], b.attrs[i])
		default:
			sum += max(c.agreeW, c.disagreeW)
		}
	}
	return sum
}

// matches reports whether the pair's score reaches Upper (Decide == Match),
// scoring it only when the bound allows. The comparison is written so that a
// NaN bound (degenerate M/U) falls through to the exact score.
func (s *scorer) matches(a, b *profile) bool {
	return !(s.bound(a, b) < s.upper) && s.score(a, b) >= s.upper
}

// Table holds the profiles of one concept's records for the lifetime of one
// maintenance pass: upsert scans it for the stored record an incoming one
// co-refers with, and puts every record it lands back, so a later record of
// the same pass is matched against the store as it then stands.
type Table struct {
	s        *scorer
	profiles []*profile
	at       map[string]int
	// Compared counts pairs scored exactly; Pruned counts pairs the bound
	// skipped.
	Compared, Pruned int
}

// NewTable returns an empty table scoring with m as it is now.
func (m *Matcher) NewTable() *Table {
	return &Table{s: m.scorer(), at: make(map[string]int)}
}

// Put adds r's profile, replacing the one held for r.ID.
func (t *Table) Put(r *lrec.Record) {
	p := t.s.profile(r)
	if i, ok := t.at[r.ID]; ok {
		t.profiles[i] = p
		return
	}
	t.at[r.ID] = len(t.profiles)
	t.profiles = append(t.profiles, p)
}

// Best returns the ID of the held record scoring highest against r among
// those reaching Upper, the lowest ID among equal scores — the result of
// scoring every held record, found by scoring only those whose bound reaches
// Upper.
func (t *Table) Best(r *lrec.Record) (id string, ok bool) {
	q := t.s.profile(r)
	var best float64
	for _, p := range t.profiles {
		if t.s.bound(p, q) < t.s.upper {
			t.Pruned++
			continue
		}
		t.Compared++
		sc := t.s.score(p, q)
		if sc < t.s.upper {
			continue
		}
		if !ok || sc > best || (sc == best && p.id < id) {
			id, best, ok = p.id, sc, true
		}
	}
	return id, ok
}
