package session

import (
	"sort"
	"strconv"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/obs"
	"conceptweb/internal/textproc"
)

// Concept recommendation (§5.4): "concept recommendation should not be
// viewed as a single problem with a single optimization criterion" — the two
// key instances are alternatives (substitutes that might displace the
// current record, where worse options are suppressed) and augmentations
// (complements ranked by conditional interest, with no displacement logic).

// Recommendation is one recommended record with its score and reason.
type Recommendation struct {
	Record *lrec.Record
	Score  float64
	Reason string
}

// Recommender produces alternatives and augmentations over a built web of
// concepts.
type Recommender struct {
	Woc *core.WebOfConcepts
	// Metrics, when non-nil, counts and times recommendation calls.
	Metrics *obs.Registry
}

// Alternatives recommends substitutes for a record: same concept, same
// city, similar cuisine or price, ranked by similarity then rating — and
// options clearly worse than the current record are suppressed ("the goal of
// the system is to suppress recommendations that the user finds less
// preferable overall").
func (rc *Recommender) Alternatives(recordID string, k int) ([]Recommendation, error) {
	defer rc.Metrics.Time("rec.alternatives.latency")()
	rc.Metrics.Counter("rec.alternatives.calls").Inc()
	// Candidates are filtered and scored on the store's own records; only
	// the k returned are copied.
	cur, err := rc.Woc.Records.View(recordID)
	if err != nil {
		return nil, err
	}
	curRating := parseRating(cur.Get("rating"))
	city, cuisine := textproc.Normalize(cur.Get("city")), textproc.Normalize(cur.Get("cuisine"))
	price, kind := textproc.Normalize(cur.Get("price")), textproc.Normalize(cur.Get("kind"))
	var out []Recommendation
	// A plausible substitute scores at least 2, so it equals cur on city,
	// cuisine or kind — and is then in the store's attribute index under
	// cur's value for that key (the index holds every value of a record, eq
	// compares best values: a superset). Each candidate is taken from the
	// first of the three sets whose key it equals cur on, so none is scored
	// twice.
	for i, key := range [...]string{"city", "cuisine", "kind"} {
		for _, cand := range rc.Woc.Records.ViewByAttr(cur.Concept, key, cur.Get(key)) {
			if cand.ID == cur.ID {
				continue
			}
			same := [...]bool{eq(cand, "city", city), eq(cand, "cuisine", cuisine), eq(cand, "kind", kind)}
			if !same[i] || (i > 0 && same[0]) || (i > 1 && same[1]) {
				continue
			}
			score := 0.0
			reason := ""
			if same[0] {
				score += 2
				reason = "same city"
			}
			if same[1] {
				score += 2
				if reason != "" {
					reason += ", "
				}
				reason += "same cuisine"
			}
			if eq(cand, "price", price) {
				score += 0.5
			}
			if same[2] { // products: same kind substitutes
				score += 2
				reason = "same kind"
			}
			// Suppression: an alternative rated clearly below the current
			// record is not shown.
			candRating := parseRating(cand.Get("rating"))
			if curRating > 0 && candRating > 0 && candRating < curRating-0.5 {
				continue
			}
			score += candRating / 5
			out = append(out, Recommendation{Record: cand, Score: score, Reason: reason})
		}
	}
	sortRecs(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	for i := range out {
		out[i].Record = out[i].Record.Clone()
	}
	return out, nil
}

// Augmentations recommends complements for a record: products that declare
// themselves accessories of it (the Canon G10 → NB-7L battery example), and
// for local records, events in the same city. Ranking is by "degree of
// interest conditioned on engagement with the primary record"; no
// suppression applies.
func (rc *Recommender) Augmentations(recordID string, k int) ([]Recommendation, error) {
	defer rc.Metrics.Time("rec.augmentations.latency")()
	rc.Metrics.Counter("rec.augmentations.calls").Inc()
	cur, err := rc.Woc.Records.Get(recordID)
	if err != nil {
		return nil, err
	}
	var out []Recommendation
	// Declared accessory relations.
	for _, cand := range rc.Woc.Records.ByAttr("product", "accessory_of", cur.ID) {
		out = append(out, Recommendation{Record: cand, Score: 3, Reason: "accessory"})
	}
	// Ground-truth accessory ids may reference the entity id rather than the
	// record id; try the record's own declared accessory links too.
	for _, v := range cur.All("accessory_of") {
		if cam, err := rc.Woc.Records.Get(v.Value); err == nil {
			out = append(out, Recommendation{Record: cam, Score: 2.5, Reason: "accessory of"})
		}
	}
	// Same-city events complement local entities.
	if city := cur.Get("city"); city != "" && cur.Concept != "event" {
		for _, ev := range rc.Woc.Records.ByAttr("event", "city", city) {
			out = append(out, Recommendation{Record: ev, Score: 1, Reason: "event nearby"})
		}
	}
	sortRecs(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// eq reports whether cand's best value for key is non-empty and normalizes
// to want.
func eq(cand *lrec.Record, key, want string) bool {
	v := cand.Get(key)
	return v != "" && textproc.EqualsNormalized(v, want)
}

func parseRating(s string) float64 {
	if s == "" {
		return 0
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return f
}

func sortRecs(out []Recommendation) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Record.ID < out[j].Record.ID
	})
}

// PersonalizedRank re-ranks recommendations by the user's session focus and
// historical interests — the §5.3 "matching content to a particular user in
// a particular context". This is also the machinery behind the Birks
// example: a user who has been viewing restaurants in zip 95054 ranks
// Birk's Steakhouse above Birks & Mayors.
func (rc *Recommender) PersonalizedRank(m *UserModel, recs []Recommendation) []Recommendation {
	focus := m.SessionFocus()
	hist := m.history
	out := append([]Recommendation(nil), recs...)
	for i := range out {
		bonus := 0.0
		for _, key := range m.interestKeys(Event{RecordID: out[i].Record.ID}) {
			bonus += 2*focus[key] + 0.2*hist[key]
		}
		out[i].Score += bonus
	}
	sortRecs(out)
	return out
}
