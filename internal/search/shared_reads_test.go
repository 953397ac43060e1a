package search

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/obs"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
)

// The clone-everything ConceptSearch and Trigger that the shared-reference
// versions replaced, retained verbatim as oracles: every candidate is copied
// out of the store with Records.Get before it is looked at. No non-test code
// calls them.

func conceptSearchCloneAll(e *Engine, query string, filters []Filter, k int) []RecordHit {
	parsed := e.Parser.Parse(query)
	retrieval := parsed.Raw
	if parsed.Kind == IntentSet {
		parts := append([]string{}, parsed.NameTokens...)
		if parsed.Category != "" {
			parts = append(parts, parsed.Category)
		}
		if parsed.City != "" {
			parts = append(parts, parsed.City)
		}
		retrieval = strings.Join(parts, " ")
	}
	hits := e.Woc.RecIndex.Search(retrieval, k*6+30)
	out := make([]RecordHit, 0, len(hits))
	for _, h := range hits {
		rec, err := e.Woc.Records.Get(h.ID)
		if err != nil {
			continue
		}
		if !passesFiltersCloneAll(rec, parsed, filters) {
			continue
		}
		score := h.Score
		if parsed.City != "" && textproc.Normalize(rec.Get("city")) == textproc.Normalize(parsed.City) {
			score += 2
		}
		if parsed.Category != "" && textproc.Normalize(rec.Get("cuisine")) == textproc.Normalize(parsed.Category) {
			score += 2
		}
		out = append(out, RecordHit{Record: rec, Score: score})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Record.ID < out[j].Record.ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func passesFiltersCloneAll(rec *lrec.Record, parsed Parsed, filters []Filter) bool {
	for _, f := range filters {
		match := false
		for _, v := range rec.All(f.Key) {
			if textproc.Normalize(v.Value) == textproc.Normalize(f.Value) {
				match = true
				break
			}
		}
		if !match {
			return false
		}
	}
	if parsed.Kind == IntentSet && parsed.City != "" && rec.Has("city") {
		if textproc.Normalize(rec.Get("city")) != textproc.Normalize(parsed.City) {
			return false
		}
	}
	if parsed.Kind == IntentSet && parsed.Category != "" {
		if textproc.Normalize(rec.Get("cuisine")) != textproc.Normalize(parsed.Category) {
			return false
		}
	}
	return true
}

func triggerCloneAll(e *Engine, q Parsed) (*lrec.Record, float64) {
	if q.Kind == IntentSet || len(q.NameTokens) == 0 {
		return nil, 0
	}
	lookup := strings.Join(q.NameTokens, " ")
	if q.City != "" {
		lookup += " " + q.City
	}
	hits := e.Woc.RecIndex.Search(lookup, 3)
	if len(hits) == 0 {
		return fuzzyTriggerCloneAll(e, q)
	}
	margin := e.TriggerMargin
	if len(hits) > 1 && hits[1].Score > 0 && hits[0].Score/hits[1].Score < margin {
		return nil, 0
	}
	rec, err := e.Woc.Records.Get(hits[0].ID)
	if err != nil {
		return nil, 0
	}
	name := textproc.Normalize(rec.Get("name") + " " + rec.Get("title") + " " + rec.FlatText())
	nameSet := textproc.TokenSet(textproc.StemAll(textproc.Tokenize(name)))
	matched := 0
	for _, t := range q.NameTokens {
		if nameSet[textproc.Stem(t)] {
			matched++
		}
	}
	cover := float64(matched) / float64(len(q.NameTokens))
	if cover < 0.5 {
		return nil, 0
	}
	if q.City != "" && rec.Has("city") &&
		textproc.Normalize(rec.Get("city")) != textproc.Normalize(q.City) {
		return nil, 0
	}
	return rec, 0.5 + 0.5*cover
}

func fuzzyTriggerCloneAll(e *Engine, q Parsed) (*lrec.Record, float64) {
	needle := textproc.Normalize(strings.Join(q.NameTokens, " "))
	if needle == "" {
		return nil, 0
	}
	var best, second float64
	var bestRec *lrec.Record
	e.Woc.Records.Scan(func(r *lrec.Record) bool {
		name := r.Get("name")
		if name == "" {
			name = r.Get("title")
		}
		if name == "" {
			return true
		}
		if q.City != "" && r.Has("city") &&
			textproc.Normalize(r.Get("city")) != textproc.Normalize(q.City) {
			return true
		}
		s := textproc.TrigramSim(needle, textproc.Normalize(name))
		switch {
		case s > best:
			second = best
			best, bestRec = s, r.Clone()
		case s > second:
			second = s
		}
		return true
	})
	if bestRec == nil || best < 0.55 || (second > 0 && best-second < 0.1) {
		return nil, 0
	}
	return bestRec, 0.4 + 0.4*best
}

var (
	onceHeavy sync.Once
	heavyEng  *Engine
)

// heavyTailEngine builds a 2k-page heavy-tail world with the heavytail
// profile's concepts and configuration (woc.Manifest.World): aggregator hosts
// carry about half the pages, so set queries touch most of the record index.
func heavyTailEngine(t *testing.T) *Engine {
	t.Helper()
	onceHeavy.Do(func() {
		w := webgen.NewStreamWorld(webgen.HeavyTailConfig(2000))
		reg := lrec.NewRegistry()
		webgen.RegisterScaleConcepts(reg)
		b := &core.Builder{Cfg: core.ScaleConfig(reg, w.Cities(), webgen.Cuisines())}
		woc, _, err := b.BuildStream(w)
		if err != nil {
			panic(err)
		}
		woc.Reconcile("restaurant", core.PreferSupport)
		heavyEng = NewEngine(woc, NewParser(w.Cities(), webgen.Cuisines()))
	})
	return heavyEng
}

// recordQueries makes the §5.1 query forms from the world's own restaurant
// records — instance, set, attribute — plus, per few records, a misspelt name
// that retrieves nothing and so reaches the fuzzy trigger.
func recordQueries(e *Engine) []string {
	seen := map[string]bool{}
	var out []string
	add := func(q string) {
		if q = textproc.NormalizeQuery(q); q != "" && !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	for i, r := range e.Woc.Records.ByConcept("restaurant") {
		name, city, cuisine := r.Get("name"), r.Get("city"), r.Get("cuisine")
		if name == "" {
			continue
		}
		add(name + " " + city)
		add(cuisine + " " + city)
		add("best " + cuisine + " restaurants in " + city)
		add(name + " menu")
		if i%7 == 0 && len(name) > 4 {
			// No city: a city token would retrieve records and keep the
			// query off the fuzzy path.
			add(strings.ReplaceAll(name[:2]+"u"+name[2:], " ", ""))
		}
	}
	return out
}

// TestSharedReadsMatchCloneEverything: reading the store's own records and
// copying only what is returned answers exactly as copying every candidate
// did — same records, same scores, same order, same trigger decisions — on
// the package's default-profile world and on a heavy-tail one.
func TestSharedReadsMatchCloneEverything(t *testing.T) {
	_, small := engine(t)
	for name, e := range map[string]*Engine{"default": small, "heavytail": heavyTailEngine(t)} {
		queries := recordQueries(e)
		if len(queries) < 100 {
			t.Fatalf("%s: only %d queries", name, len(queries))
		}
		boxes, hits := 0, 0
		for _, q := range queries {
			for _, k := range []int{1, 10} {
				got, want := e.ConceptSearch(q, nil, k), conceptSearchCloneAll(e, q, nil, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: ConceptSearch(%q, %d) differs from the clone-everything version", name, q, k)
				}
				hits += len(got)
			}
			parsed := e.Parser.Parse(q)
			gotRec, gotConf := e.Trigger(parsed)
			wantRec, wantConf := triggerCloneAll(e, parsed)
			if gotConf != wantConf || !reflect.DeepEqual(gotRec, wantRec) {
				t.Fatalf("%s: Trigger(%q) = %v @%v, clone-everything version %v @%v",
					name, q, gotRec, gotConf, wantRec, wantConf)
			}
			if gotRec != nil {
				boxes++
			}
		}
		filters := []Filter{{Key: "cuisine", Value: "Pizza"}}
		for _, q := range queries[:40] {
			if !reflect.DeepEqual(e.ConceptSearch(q, filters, 5), conceptSearchCloneAll(e, q, filters, 5)) {
				t.Fatalf("%s: filtered ConceptSearch(%q) differs", name, q)
			}
		}
		if boxes == 0 || hits == 0 {
			t.Fatalf("%s: %d boxes, %d hits: the comparison exercised nothing", name, boxes, hits)
		}
	}
}

// TestRankedQueriesPublishTheirCost: every ranked index query — two per
// Search (record index for the trigger, document index for the results), one
// per ConceptSearch — lands as one observation in index.search.touched and
// index.search.postings, and a query walks at least as many postings as it
// scores documents.
func TestRankedQueriesPublishTheirCost(t *testing.T) {
	_, shared := engine(t)
	e := *shared
	e.Metrics = obs.NewRegistry()
	e.Search("pizza cupertino", 10)
	e.ConceptSearch("pizza cupertino", nil, 10)
	e.Search("zzzunknownzzz", 10) // a query that touches nothing still counts
	touched := e.Metrics.Histogram("index.search.touched")
	postings := e.Metrics.Histogram("index.search.postings")
	if touched.Count() != 5 || postings.Count() != 5 {
		t.Fatalf("%d touched / %d postings observations, want 5 each", touched.Count(), postings.Count())
	}
	if touched.Sum() <= 0 || postings.Sum() < touched.Sum() {
		t.Errorf("touched sum %v, postings sum %v: want 0 < touched <= postings", touched.Sum(), postings.Sum())
	}
}
