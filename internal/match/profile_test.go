package match

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
)

// compareAttrReference and scoreReference are the raw-string scorer the
// profiles replaced, kept verbatim as the oracle: every pair re-runs each
// comparator's Sim — Normalize, Tokenize, mostSpecific, trigram maps — on
// the records' own strings.
func compareAttrReference(c Comparator, a, b *lrec.Record) Agreement {
	_, aok := a.Best(c.Key)
	_, bok := b.Best(c.Key)
	if !aok || !bok {
		return AgreementMissing
	}
	if c.MostSpecific {
		if c.Sim(mostSpecific(a.All(c.Key)), mostSpecific(b.All(c.Key))) >= c.AgreeAt {
			return Agree
		}
		return Disagree
	}
	best := 0.0
	for _, x := range a.All(c.Key) {
		for _, y := range b.All(c.Key) {
			if s := c.Sim(x.Value, y.Value); s > best {
				best = s
			}
		}
	}
	if best >= c.AgreeAt {
		return Agree
	}
	return Disagree
}

func scoreReference(m *Matcher, a, b *lrec.Record) float64 {
	var s float64
	for _, c := range m.Comparators {
		s += c.Weight(compareAttrReference(c, a, b))
	}
	return s
}

// bestReference is the scan upsert ran before the table: every held record
// scored in ascending-ID order, an incumbent displaced only by a strictly
// higher score.
func bestReference(m *Matcher, sorted []*lrec.Record, r *lrec.Record) (string, bool) {
	var bestID string
	var bestScore float64
	for _, cand := range sorted {
		s := scoreReference(m, cand, r)
		if s < m.Upper {
			continue
		}
		if bestID == "" || s > bestScore {
			bestScore, bestID = s, cand.ID
		}
	}
	return bestID, bestID != ""
}

// Value pools for the random records: case, punctuation and apostrophes the
// normaliser folds, multibyte names, phone formats, empty and blank strings.
var (
	propNames = []string{"Gochi", "Fusion", "Tapas", "Old", "Hearth", "Diner", "Sushi", "Bar",
		"Café", "Niño", "Über", "東京", "ラーメン", "Joe's", "O'Neill", "Golden", "Dragon",
		"&", "The", "Grill", "No.", "9", "crème", "brûlée"}
	propZips    = []string{"94040", "94041", "95014", "95014-1234", " 94040 ", ""}
	propPhones  = []string{"(650) 555-0101", "650.555.0101", "650-555-0199", "+1 650 555 0101", "n/a", ""}
	propStreets = []string{"100 Castro St", "100 castro street", "102 Castro St.", "1 Main St", "Rúa Nova 7", "", "  "}
	propCities  = []string{"Mountain View", "mountain view", "Cupertino", "San José", ""}
	propVenues  = []string{"PODS", "pods", "VLDB", "SIGMOD Record", ""}
	propYears   = []string{"2009", "2008", " 2009", ""}
)

func randomName(rng *rand.Rand) string {
	n := rng.Intn(5) // 0 words: the empty name
	words := make([]string, n)
	for i := range words {
		words[i] = propNames[rng.Intn(len(propNames))]
	}
	return strings.Join(words, " ")
}

// randomProfiled draws a record with each attribute missing, single- or
// multi-valued. Values are set on Attrs directly so that lists may hold
// several values equal after normalisation, which Record.Add would fold.
func randomProfiled(rng *rand.Rand, id, concept string, pools []attrPool) *lrec.Record {
	r := lrec.NewRecord(id, concept)
	for _, p := range pools {
		for n := rng.Intn(4); n > 0; n-- { // 1 in 4: missing
			v := randomName(rng)
			if p.values != nil {
				v = p.values[rng.Intn(len(p.values))]
			}
			r.Attrs[p.key] = append(r.Attrs[p.key], lrec.AttrValue{Value: v, Confidence: 0.5 + rng.Float64()/2})
		}
	}
	return r
}

// attrPool names the values an attribute draws from; nil draws a random name.
type attrPool struct {
	key    string
	values []string
}

var (
	restaurantPools = []attrPool{{"name", nil}, {"zip", propZips}, {"phone", propPhones},
		{"street", propStreets}, {"city", propCities}, {"cuisine", propNames}}
	publicationPools = []attrPool{{"title", nil}, {"venue", propVenues}, {"year", propYears}}
)

// checkPair asserts the three properties every pair must satisfy: the
// profile score and Matcher.Score equal the raw-string score bit for bit,
// and the bound is at least the score — so it never prunes a pair whose
// score reaches Upper.
func checkPair(t *testing.T, m *Matcher, s *scorer, a, b *lrec.Record) {
	t.Helper()
	want := scoreReference(m, a, b)
	pa, pb := s.profile(a), s.profile(b)
	if got := s.score(pa, pb); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("profile score %v (%x), raw-string score %v (%x)\n a = %v\n b = %v",
			got, math.Float64bits(got), want, math.Float64bits(want), a.Attrs, b.Attrs)
	}
	if got := m.Score(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Matcher.Score %v, raw-string score %v\n a = %v\n b = %v", got, want, a.Attrs, b.Attrs)
	}
	if bound := s.bound(pa, pb); bound < want {
		t.Fatalf("bound %v below score %v\n a = %v\n b = %v", bound, want, a.Attrs, b.Attrs)
	}
	if got := s.matches(pa, pb); got != (want >= m.Upper) {
		t.Fatalf("matches = %v with score %v, Upper %v\n a = %v\n b = %v", got, want, m.Upper, a.Attrs, b.Attrs)
	}
	for _, c := range m.Comparators {
		if got, want := CompareAttr(c, a, b), compareAttrReference(c, a, b); got != want {
			t.Fatalf("CompareAttr(%s) = %v, raw-string %v\n a = %v\n b = %v", c.Key, got, want, a.Attrs, b.Attrs)
		}
	}
}

// TestProfileScoreEqualsRawStringScore is the bit-identity property over
// seeded random pairs, both argument orders, both shipped comparator sets.
func TestProfileScoreEqualsRawStringScore(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, tc := range []struct {
		concept string
		comps   []Comparator
		pools   []attrPool
	}{
		{"restaurant", RestaurantComparators(), restaurantPools},
		{"publication", PublicationComparators(), publicationPools},
	} {
		m := NewMatcher(tc.comps)
		s := m.scorer()
		for _, c := range s.comps {
			if c.kind == simCustom {
				t.Fatalf("%s comparator %q: Sim not recognised, it would run on raw strings", tc.concept, c.Key)
			}
		}
		matched := 0
		for i := 0; i < 1500; i++ {
			a := randomProfiled(rng, "a", tc.concept, tc.pools)
			b := randomProfiled(rng, "b", tc.concept, tc.pools)
			if i%3 == 0 {
				// A near-copy: pairs that reach Upper must be common enough
				// to test the bound where it matters.
				b = a.Clone()
				b.ID = "b"
				delete(b.Attrs, tc.comps[rng.Intn(len(tc.comps))].Key)
			}
			checkPair(t, m, s, a, b)
			checkPair(t, m, s, b, a)
			if scoreReference(m, a, b) >= m.Upper {
				matched++
			}
		}
		if matched < 100 {
			t.Errorf("%s: only %d of 1500 pairs reached Upper", tc.concept, matched)
		}
	}
}

// TestCustomSimScoresOnRawStrings: a Sim with no prepared form — here an
// asymmetric one, and one the matcher's own MostSpecific flag wraps — is
// called with the records' raw values and scores as it always did.
func TestCustomSimScoresOnRawStrings(t *testing.T) {
	prefix := func(a, b string) float64 {
		if a != "" && strings.HasPrefix(b, a) {
			return 1
		}
		return textproc.JaroWinkler(a, b)
	}
	m := NewMatcher([]Comparator{
		{Key: "name", Sim: prefix, AgreeAt: 0.9, M: 0.95, U: 0.02, MostSpecific: true},
		{Key: "street", Sim: prefix, AgreeAt: 0.9, M: 0.85, U: 0.01},
		{Key: "zip", Sim: equalNorm, AgreeAt: 1, M: 0.97, U: 0.10},
	})
	s := m.scorer()
	if s.comps[0].kind != simCustom || s.comps[1].kind != simCustom || s.comps[2].kind != simEqualNorm {
		t.Fatalf("kinds = %v %v %v", s.comps[0].kind, s.comps[1].kind, s.comps[2].kind)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 1000; i++ {
		a := randomProfiled(rng, "a", "restaurant", restaurantPools)
		b := randomProfiled(rng, "b", "restaurant", restaurantPools)
		checkPair(t, m, s, a, b)
		checkPair(t, m, s, b, a)
	}
}

// TestTableBestEqualsFullScan: the bounded table scan returns the record the
// score-everything scan returns — exact duplicates under different IDs make
// equal-score ties, which must resolve to the lowest ID in whatever order
// the table was filled — while records put later replace or join the held set.
func TestTableBestEqualsFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := NewMatcher(RestaurantComparators())
	for trial := 0; trial < 6; trial++ {
		stored := randomRestaurantCorpus(rng, 20+rng.Intn(20))
		for i := len(stored) - 1; i > 0; i -= 5 {
			dup := stored[i].Clone()
			dup.ID = fmt.Sprintf("q%04d", i)
			stored = append(stored, dup)
		}
		byID := make(map[string]*lrec.Record)
		table := m.NewTable()
		for _, i := range rng.Perm(len(stored)) {
			byID[stored[i].ID] = stored[i]
			table.Put(stored[i])
		}
		hits, ties := 0, 0
		for i, in := range randomRestaurantCorpus(rng, 40) {
			in.ID = fmt.Sprintf("in%04d", i)
			sorted := sortedRecords(byID)
			wantID, wantOK := bestReference(m, sorted, in)
			gotID, gotOK := table.Best(in)
			if gotID != wantID || gotOK != wantOK {
				t.Fatalf("trial %d record %d: table picked %q (%v), full scan %q (%v)", trial, i, gotID, gotOK, wantID, wantOK)
			}
			if wantOK {
				hits++
				top := scoreReference(m, byID[wantID], in)
				for _, r := range sorted {
					if r.ID != wantID && scoreReference(m, r, in) == top {
						ties++
						break
					}
				}
				merged := byID[wantID].Clone()
				merged.Merge(in) //nolint:errcheck // same concept
				in = merged
			}
			byID[in.ID] = in
			table.Put(in)
		}
		if hits == 0 || ties == 0 {
			t.Errorf("trial %d: %d matches, %d tied — the corpus no longer tests the tie-break", trial, hits, ties)
		}
		if trial == 0 && (table.Pruned == 0 || table.Compared == 0) {
			t.Errorf("compared %d, pruned %d: want both non-zero", table.Compared, table.Pruned)
		}
	}
}

func sortedRecords(byID map[string]*lrec.Record) []*lrec.Record {
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]*lrec.Record, len(ids))
	for i, id := range ids {
		out[i] = byID[id]
	}
	return out
}
