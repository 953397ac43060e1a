package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/match"
	"conceptweb/internal/webgen"
)

// upsertFullScan is the upsert the profile table replaced, kept verbatim as
// the oracle: every incoming record clones and sorts the whole concept with
// ByConcept and scores every stored record of it, in ascending-ID order, an
// incumbent displaced only by a strictly higher score.
func (b *Builder) upsertFullScan(woc *WebOfConcepts, rec *lrec.Record) (created, updated int) {
	if exist, err := woc.Records.Get(rec.ID); err == nil {
		exist.Merge(rec) //nolint:errcheck // same concept
		if woc.Records.Put(exist) == nil {
			b.associate(woc, exist)
			b.indexRecord(woc, exist)
			return 0, 1
		}
		return 0, 0
	}

	if m := b.Cfg.Matchers[rec.Concept]; m != nil {
		var bestID string
		var bestScore float64
		for _, cand := range woc.Records.ByConcept(rec.Concept) {
			s := m.Score(cand, rec)
			if s < m.Upper {
				continue
			}
			if bestID == "" || s > bestScore {
				bestScore, bestID = s, cand.ID
			}
		}
		if bestID != "" {
			exist, err := woc.Records.Get(bestID)
			if err == nil {
				exist.Merge(rec) //nolint:errcheck
				if woc.Records.Put(exist) == nil {
					b.associate(woc, exist)
					b.indexRecord(woc, exist)
					return 0, 1
				}
			}
			return 0, 0
		}
	}

	if woc.Records.Put(rec) == nil {
		b.associate(woc, rec)
		b.indexRecord(woc, rec)
		return 1, 0
	}
	return 0, 0
}

// randomRestaurants draws entities the way sources mangle them: one to three
// variants each, names truncated, attributes dropped, all in a handful of
// zips so that most pairs survive the zip/city part of the bound.
func randomRestaurants(rng *rand.Rand, prefix string, entities int) []*lrec.Record {
	words := []string{"gochi", "fusion", "tapas", "old", "hearth", "diner", "sushi", "bar",
		"golden", "dragon", "palace", "café", "luna", "verde", "blue", "fig"}
	var recs []*lrec.Record
	for e := 0; e < entities; e++ {
		name := make([]string, 2+rng.Intn(3))
		for i := range name {
			name[i] = words[rng.Intn(len(words))]
		}
		full := map[string]string{
			"name":   strings.Join(name, " "),
			"zip":    fmt.Sprintf("9404%d", rng.Intn(4)),
			"phone":  fmt.Sprintf("(650) 555-%04d", rng.Intn(10000)),
			"street": fmt.Sprintf("%d castro st", 100+rng.Intn(40)),
			"city":   []string{"Mountain View", "Cupertino"}[rng.Intn(2)],
		}
		for v := 1 + rng.Intn(3); v > 0; v-- {
			r := lrec.NewRecord(fmt.Sprintf("restaurant:%s%04d", prefix, len(recs)), "restaurant")
			for _, k := range []string{"name", "zip", "phone", "street", "city"} {
				val := full[k]
				if k == "name" && rng.Intn(3) == 0 {
					val = name[0]
				}
				if k == "name" || rng.Intn(4) != 0 {
					r.Add(k, lrec.AttrValue{Value: val, Confidence: 0.9,
						Prov: lrec.Provenance{SourceURL: prefix + ".example/" + r.ID, Operators: []string{"test"}}})
				}
			}
			recs = append(recs, r)
		}
	}
	return recs
}

// TestUpsertTableEqualsFullScan drives the bounded table upsert and the
// score-everything oracle over the same seeded stores and incoming batches:
// record by record the same created/updated outcome, and at the end the same
// store bytes (versions included) and the same page→record associations —
// each incoming record cites a page of its own, so equal associations mean
// equal merge targets. Exact duplicates stored under a second ID make
// equal-score ties that must land on the lowest ID.
func TestUpsertTableEqualsFullScan(t *testing.T) {
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	m := match.NewMatcher(match.RestaurantComparators())
	b := &Builder{Cfg: Config{Registry: reg, Matchers: map[string]*match.Matcher{"restaurant": m}}}
	newWorld := func(stored []*lrec.Record) *WebOfConcepts {
		woc := &WebOfConcepts{
			Registry: reg,
			Records:  lrec.NewMemStore(lrec.WithRegistry(reg), lrec.WithShards(2)),
			Pages:    testPageStore(t),
			DocIndex: index.NewSharded(1),
			RecIndex: index.NewSharded(1),
			Assoc:    map[string][]string{},
			RevAssoc: map[string][]string{},
		}
		for _, r := range stored {
			if err := woc.Records.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		return woc
	}

	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stored := randomRestaurants(rng, "s", 40)
		for i := len(stored) - 1; i > 0; i -= 4 {
			dup := stored[i].Clone()
			dup.ID = fmt.Sprintf("restaurant:t%04d", i)
			stored = append(stored, dup)
		}
		incoming := randomRestaurants(rng, "in", 40)
		// Some incoming records re-assert a stored ID and land without a scan.
		for i := 0; i < len(incoming); i += 7 {
			incoming[i].ID = stored[rng.Intn(len(stored))].ID
		}

		bounded, oracle := newWorld(stored), newWorld(stored)
		targets := storedProfiles(bounded.Records, m, "restaurant")
		merged := 0
		for i, rec := range incoming {
			c1, u1 := b.upsert(bounded, rec.Clone(), targets)
			c2, u2 := b.upsertFullScan(oracle, rec.Clone())
			if c1 != c2 || u1 != u2 {
				t.Fatalf("seed %d record %d (%s): table upsert = (%d created, %d updated), full scan = (%d, %d)",
					seed, i, rec, c1, u1, c2, u2)
			}
			merged += u1
		}
		if merged < 5 || merged > len(incoming)-5 {
			t.Errorf("seed %d: %d of %d incoming records merged — the batch no longer tests both outcomes", seed, merged, len(incoming))
		}
		if !reflect.DeepEqual(bounded.Assoc, oracle.Assoc) {
			diffStringMaps(t, fmt.Sprintf("seed %d Assoc", seed), bounded.Assoc, oracle.Assoc)
		}
		if got, want := fingerprint(bounded), fingerprint(oracle); got != want {
			diffStores(t, bounded, oracle)
			t.Fatalf("seed %d: store fingerprint %s after table upserts, %s after full scans", seed, got, want)
		}
		if targets.Pruned == 0 || targets.Compared == 0 {
			t.Errorf("seed %d: compared %d, pruned %d: want both non-zero", seed, targets.Compared, targets.Pruned)
		}
	}
}
