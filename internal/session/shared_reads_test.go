package session

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/search"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
)

// alternativesWholeConcept is the Alternatives that the attribute-index
// version replaced, retained verbatim as the oracle: it copies and walks the
// whole concept, and re-normalizes the current record's value for every
// candidate and key. No non-test code calls it.
func alternativesWholeConcept(rc *Recommender, recordID string, k int) ([]Recommendation, error) {
	cur, err := rc.Woc.Records.Get(recordID)
	if err != nil {
		return nil, err
	}
	eq := func(a, b *lrec.Record, key string) bool {
		av, bv := a.Get(key), b.Get(key)
		return av != "" && textproc.Normalize(av) == textproc.Normalize(bv)
	}
	curRating := parseRating(cur.Get("rating"))
	var out []Recommendation
	for _, cand := range rc.Woc.Records.ByConcept(cur.Concept) {
		if cand.ID == cur.ID {
			continue
		}
		score := 0.0
		reason := ""
		if eq(cand, cur, "city") {
			score += 2
			reason = "same city"
		}
		if eq(cand, cur, "cuisine") {
			score += 2
			if reason != "" {
				reason += ", "
			}
			reason += "same cuisine"
		}
		if eq(cand, cur, "price") {
			score += 0.5
		}
		if eq(cand, cur, "kind") {
			score += 2
			reason = "same kind"
		}
		if score < 2 {
			continue
		}
		candRating := parseRating(cand.Get("rating"))
		if curRating > 0 && candRating > 0 && candRating < curRating-0.5 {
			continue
		}
		score += candRating / 5
		out = append(out, Recommendation{Record: cand, Score: score, Reason: reason})
	}
	sortRecs(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// heavyTailWoc builds a 2k-page heavy-tail world with the heavytail
// profile's concepts and configuration (woc.Manifest.World), where a city or
// cuisine holds hundreds of restaurants.
func heavyTailWoc(t testing.TB) (*core.WebOfConcepts, *search.Parser) {
	t.Helper()
	w := webgen.NewStreamWorld(webgen.HeavyTailConfig(2000))
	reg := lrec.NewRegistry()
	webgen.RegisterScaleConcepts(reg)
	b := &core.Builder{Cfg: core.ScaleConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, _, err := b.BuildStream(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { woc.Close() })
	woc.Reconcile("restaurant", core.PreferSupport)
	return woc, search.NewParser(w.Cities(), webgen.Cuisines())
}

// edgeWoc hand-builds the cases where the attribute index and eq could
// disagree: values differing only in case, a record indexed under a value
// that is not its best one, values that normalize to nothing, missing keys.
func edgeWoc(t *testing.T) *core.WebOfConcepts {
	t.Helper()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	woc := &core.WebOfConcepts{Registry: reg, Records: lrec.NewMemStore(lrec.WithRegistry(reg))}
	put := func(r *lrec.Record) {
		if err := woc.Records.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	put(lrec.NewRecord("p1", "product").Set("kind", "camera").Set("price", "$10").Set("rating", "4"))
	put(lrec.NewRecord("p2", "product").Set("kind", "Camera!").Set("price", "$10"))
	twoKinds := lrec.NewRecord("p3", "product")
	twoKinds.Add("kind", lrec.AttrValue{Value: "camera", Confidence: 0.4})
	twoKinds.Add("kind", lrec.AttrValue{Value: "lens", Confidence: 0.9})
	put(twoKinds)
	put(lrec.NewRecord("p4", "product").Set("kind", "---").Set("rating", "2"))
	put(lrec.NewRecord("p5", "product").Set("price", "$10"))
	put(lrec.NewRecord("p6", "product").Set("kind", "lens").Set("rating", "4.5"))
	put(lrec.NewRecord("r1", "restaurant").Set("city", "San Jose").Set("cuisine", "Thai").Set("rating", "4"))
	put(lrec.NewRecord("r2", "restaurant").Set("city", "san jose").Set("cuisine", "thai").Set("rating", "3"))
	put(lrec.NewRecord("r3", "restaurant").Set("city", "San Jose").Set("cuisine", "Pizza").Set("rating", "4.8"))
	put(lrec.NewRecord("r4", "restaurant").Set("city", "Oakland").Set("cuisine", "Thai").Set("price", "$$"))
	twoCities := lrec.NewRecord("r5", "restaurant").Set("cuisine", "Thai")
	twoCities.Add("city", lrec.AttrValue{Value: "San Jose", Confidence: 0.3})
	twoCities.Add("city", lrec.AttrValue{Value: "Oakland", Confidence: 0.8})
	put(twoCities)
	put(lrec.NewRecord("r6", "restaurant").Set("name", "No Attributes"))
	return woc
}

// TestAlternativesMatchWholeConceptWalk: drawing candidates from the store's
// attribute index and normalizing the current record once recommends exactly
// what walking a copy of the whole concept did — same records, scores,
// reasons and order — for every record of every concept, on the package's
// default-profile world, a heavy-tail one, and a hand-built world of edge
// cases (which also covers the products' "same kind" rule).
func TestAlternativesMatchWholeConceptWalk(t *testing.T) {
	_, eng := engine(t)
	heavy, _ := heavyTailWoc(t)
	worlds := map[string]*core.WebOfConcepts{"default": eng.Woc, "heavytail": heavy, "edge": edgeWoc(t)}
	for name, woc := range worlds {
		rc := &Recommender{Woc: woc}
		calls, recommended := 0, 0
		var ids []string
		woc.Records.Scan(func(r *lrec.Record) bool {
			ids = append(ids, r.ID)
			return true
		})
		if name == "heavytail" {
			// Every tenth record keeps the whole-concept oracle affordable.
			kept := ids[:0]
			for i, id := range ids {
				if i%10 == 0 {
					kept = append(kept, id)
				}
			}
			ids = kept
		}
		for _, id := range ids {
			for _, k := range []int{0, 3, 10} {
				got, err := rc.Alternatives(id, k)
				want, werr := alternativesWholeConcept(rc, id, k)
				if err != nil || werr != nil {
					t.Fatalf("%s: Alternatives(%s): %v / %v", name, id, err, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Alternatives(%s, %d) differs from the whole-concept walk:\n got %v\nwant %v",
						name, id, k, got, want)
				}
				recommended += len(got)
			}
			calls++
		}
		if recommended == 0 {
			t.Fatalf("%s: %d records, nothing recommended: the comparison exercised nothing", name, calls)
		}
	}
	if _, err := (&Recommender{Woc: eng.Woc}).Alternatives("no-such-record", 3); err == nil {
		t.Error("unknown record: no error")
	}
}

// storeFingerprint hashes every live record's ID, concept and attribute
// values (with confidence, support and provenance) in ID order. Versions are
// left out: they come from the store's clock, not from what was written.
func storeFingerprint(recs []*lrec.Record) string {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%q %q\n", r.ID, r.Concept)
		for _, k := range r.Keys() {
			fmt.Fprintf(h, " %q=%+v\n", k, r.All(k))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// scribble overwrites everything reachable from a returned record.
func scribble(r *lrec.Record) {
	for k, vals := range r.Attrs {
		for i := range vals {
			vals[i].Value = "scribbled"
			vals[i].Confidence = 0
			for j := range vals[i].Prov.Operators {
				vals[i].Prov.Operators[j] = "scribbled"
			}
		}
		r.Attrs[k] = append(vals, lrec.AttrValue{Value: "extra"})
	}
	r.Attrs["scribbled"] = []lrec.AttrValue{{Value: "yes"}}
	r.ID, r.Concept = "scribbled", "scribbled"
}

// TestReturnedRecordsAreCallersToKeep: the query path reads the store's own
// records, so everything it hands back must be a copy. Readers scribble over
// every record returned by ConceptSearch, Alternatives and Search's concept
// box while a writer Puts new versions of the same IDs; afterwards the store
// must hold exactly what the writer wrote. Run under -race this also fails
// on any read of a shared record that overlaps a reader's write.
func TestReturnedRecordsAreCallersToKeep(t *testing.T) {
	woc, parser := heavyTailWoc(t)
	eng := search.NewEngine(woc, parser)
	rc := &Recommender{Woc: woc}

	// expect mirrors the store from the writer's side: private copies of
	// every record, replaced by whatever the writer puts.
	expect := map[string]*lrec.Record{}
	var restaurants []*lrec.Record
	woc.Records.Scan(func(r *lrec.Record) bool {
		expect[r.ID] = r.Clone()
		if r.Concept == "restaurant" && r.Get("name") != "" && r.Get("city") != "" {
			restaurants = append(restaurants, expect[r.ID])
		}
		return true
	})
	if len(restaurants) < 50 {
		t.Fatalf("only %d restaurants to query", len(restaurants))
	}
	restaurants = restaurants[:50]
	type probe struct{ id, instance, set string }
	probes := make([]probe, len(restaurants))
	for i, r := range restaurants {
		probes[i] = probe{id: r.ID, instance: r.Get("name") + " " + r.Get("city"), set: r.Get("cuisine") + " " + r.Get("city")}
	}

	const rounds = 4
	var wg sync.WaitGroup
	var scribbled [2]int
	for reader := range scribbled {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for _, p := range probes {
					for _, h := range eng.ConceptSearch(p.set, nil, 10) {
						scribble(h.Record)
						scribbled[reader]++
					}
					alts, err := rc.Alternatives(p.id, 10)
					if err != nil {
						t.Errorf("Alternatives(%s): %v", p.id, err)
					}
					for _, a := range alts {
						scribble(a.Record)
						scribbled[reader]++
					}
					if page := eng.Search(p.instance, 10); page.Box != nil {
						scribble(page.Box.Record)
						scribbled[reader]++
					}
				}
			}
		}(reader)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < rounds; round++ {
			for _, p := range probes {
				next := expect[p.id].Clone()
				next.Set("note", "round "+strconv.Itoa(round))
				if err := woc.Records.Put(next); err != nil {
					t.Errorf("Put(%s): %v", p.id, err)
				}
				expect[p.id] = next
			}
		}
	}()
	wg.Wait()

	if scribbled[0] == 0 || scribbled[1] == 0 {
		t.Fatalf("readers scribbled on %v records: nothing was exercised", scribbled)
	}
	var stored, want []*lrec.Record
	woc.Records.Scan(func(r *lrec.Record) bool {
		stored = append(stored, r)
		return true
	})
	for _, r := range expect {
		want = append(want, r)
	}
	if got, want := storeFingerprint(stored), storeFingerprint(want); got != want {
		t.Fatalf("store fingerprint %s, the writer alone produces %s: a returned record aliased the store", got, want)
	}
}
