package search

import (
	"cmp"
	"slices"
	"strings"

	"conceptweb/internal/core"
	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/obs"
	"conceptweb/internal/textproc"
)

// Engine is the concept-aware search engine of §5.1: classic BM25 document
// retrieval, augmented with concept-box triggering and record-association
// ranking features, all driven by the built web of concepts.
type Engine struct {
	Woc    *core.WebOfConcepts
	Parser *Parser
	// TriggerMargin is the confidence margin (top vs. runner-up record
	// score) required to show a concept box (default 1.15).
	TriggerMargin float64
	// HomepageBoost / AssocBoost are the ranking feature weights for
	// documents that are the triggered record's homepage / are associated
	// with it.
	HomepageBoost float64
	AssocBoost    float64
	// Metrics, when non-nil, receives query counters and latency histograms
	// for the engine's hot paths (search, concept search, aggregation).
	Metrics *obs.Registry
}

// NewEngine builds an engine over a built web of concepts.
func NewEngine(woc *core.WebOfConcepts, parser *Parser) *Engine {
	return &Engine{
		Woc: woc, Parser: parser,
		TriggerMargin: 1.15, HomepageBoost: 6, AssocBoost: 2,
	}
}

// ConceptBox is the Figure 1 artifact: the structured answer shown above the
// web results when the query references a known instance.
type ConceptBox struct {
	Record   *lrec.Record
	Name     string
	Address  string
	Phone    string
	Rating   string
	Homepage string
	// Reviews are snippets of linked review pages (up to 2).
	Reviews []string
	// Requested holds the attribute the query explicitly asked for
	// ("gochi menu" -> Key "menu"), when the record has it.
	Requested struct{ Key, Value string }
	// Confidence is the triggering confidence in (0,1].
	Confidence float64
}

// DocResult is one ranked web result with its concept annotations.
type DocResult struct {
	URL   string
	Score float64
	// RecordIDs are the records this document is associated with.
	RecordIDs []string
	// IsHomepage marks the official homepage of the triggered record.
	IsHomepage bool
}

// ResultPage is the full §5.1 search response.
type ResultPage struct {
	Query      Parsed
	Box        *ConceptBox
	Results    []DocResult
	Assistance []string
}

// Search answers a query with a concept box (when triggered), augmented
// document ranking, and query assistance.
func (e *Engine) Search(query string, k int) *ResultPage {
	defer e.Metrics.Time("search.latency")()
	e.Metrics.Counter("search.queries").Inc()
	parsed := e.Parser.Parse(query)
	page := &ResultPage{Query: parsed, Assistance: e.Parser.SuggestAssistance(parsed)}

	rec, conf := e.Trigger(parsed)
	if rec != nil {
		e.Metrics.Counter("search.box.triggered").Inc()
		page.Box = e.buildBox(rec, conf)
		// Attribute intent: surface the asked-for attribute directly in the
		// box (§3: "users explicitly search for different attributes of a
		// concept").
		if parsed.Attribute != "" {
			if v := rec.Get(parsed.Attribute); v != "" {
				page.Box.Requested.Key = parsed.Attribute
				page.Box.Requested.Value = v
			}
		}
	}

	page.Results = e.rankDocs(parsed, rec, k)
	return page
}

// Trigger decides whether the query references a specific known instance
// (§5.1: "deploy technology to trigger the special box when appropriate").
// It returns the record and a confidence, or (nil, 0).
func (e *Engine) Trigger(q Parsed) (*lrec.Record, float64) {
	if q.Kind == IntentSet || len(q.NameTokens) == 0 {
		return nil, 0
	}
	lookup := strings.Join(q.NameTokens, " ")
	if q.City != "" {
		lookup += " " + q.City
	}
	hits := e.ranked(e.Woc.RecIndex, lookup, 3)
	if len(hits) == 0 {
		// Misspelled navigational queries ("gouchi cupertino") retrieve
		// nothing by token match; fall back to fuzzy name comparison.
		return e.fuzzyTrigger(q)
	}
	margin := e.TriggerMargin
	if len(hits) > 1 && hits[1].Score > 0 && hits[0].Score/hits[1].Score < margin {
		return nil, 0 // ambiguous: no box
	}
	// Decide on the store's own record; only a record that triggers is
	// copied, for the caller to keep.
	rec, err := e.Woc.Records.View(hits[0].ID)
	if err != nil {
		return nil, 0
	}
	// The record must actually cover the name tokens: BM25 can surface a
	// record matching only the city.
	cover := nameCover(rec, q.NameTokens)
	if cover < 0.5 {
		return nil, 0
	}
	// Geographic constraint must agree when both sides have one.
	if q.City != "" && rec.Has("city") &&
		!textproc.EqualsNormalized(rec.Get("city"), textproc.Normalize(q.City)) {
		return nil, 0
	}
	conf := 0.5 + 0.5*cover
	return rec.Clone(), conf
}

// nameCover is the share of the query's name tokens that occur, after
// stemming, in the record's flattened text — its attribute keys and best
// values, which include the name and title.
func nameCover(rec *lrec.Record, nameTokens []string) float64 {
	want := make([]string, len(nameTokens))
	for i, t := range nameTokens {
		want[i] = textproc.Stem(t)
	}
	found := make([]bool, len(want))
	var toks []string
	scan := func(s string) {
		toks = textproc.TokenizeInto(s, toks[:0])
		for _, t := range toks {
			st := textproc.Stem(t)
			for i, w := range want {
				if st == w {
					found[i] = true
				}
			}
		}
	}
	for k := range rec.Attrs {
		if v, ok := rec.Best(k); ok {
			scan(k)
			scan(v.Value)
		}
	}
	matched := 0
	for _, f := range found {
		if f {
			matched++
		}
	}
	return float64(matched) / float64(len(nameTokens))
}

// workBuckets are the histogram bounds for per-query work counts.
var workBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144}

// ranked runs a BM25F query against ix and publishes what it cost: documents
// scored and postings walked, one observation each per query.
func (e *Engine) ranked(ix *index.Index, query string, k int) []index.Result {
	hits, cost := ix.SearchCost(query, k)
	e.Metrics.HistogramWith("index.search.touched", workBuckets).Observe(float64(cost.Touched))
	e.Metrics.HistogramWith("index.search.postings", workBuckets).Observe(float64(cost.Postings))
	return hits
}

// fuzzyTrigger scans record names with trigram similarity — the recovery
// path for misspelled instance queries. The best name must be clearly
// similar and clearly ahead of the runner-up.
func (e *Engine) fuzzyTrigger(q Parsed) (*lrec.Record, float64) {
	e.Metrics.Counter("search.trigger.fuzzy").Inc()
	needle := textproc.Normalize(strings.Join(q.NameTokens, " "))
	if needle == "" {
		return nil, 0
	}
	city := textproc.Normalize(q.City)
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
		if q.City != "" && r.Has("city") && !textproc.EqualsNormalized(r.Get("city"), city) {
			return true
		}
		s := textproc.TrigramSim(needle, textproc.Normalize(name))
		switch {
		case s > best:
			second = best
			best, bestRec = s, r
		case s > second:
			second = s
		}
		return true
	})
	if bestRec == nil || best < 0.55 || (second > 0 && best-second < 0.1) {
		return nil, 0
	}
	return bestRec.Clone(), 0.4 + 0.4*best
}

func (e *Engine) buildBox(rec *lrec.Record, conf float64) *ConceptBox {
	box := &ConceptBox{
		Record:     rec,
		Name:       firstNonEmpty(rec.Get("name"), rec.Get("title")),
		Phone:      rec.Get("phone"),
		Rating:     rec.Get("rating"),
		Homepage:   rec.Get("homepage"),
		Confidence: conf,
	}
	var addr []string
	for _, k := range []string{"street", "city", "state", "zip"} {
		if v := rec.Get(k); v != "" {
			addr = append(addr, v)
		}
	}
	box.Address = strings.Join(addr, ", ")
	// Attach up to two linked reviews.
	for _, rv := range e.Woc.Records.ViewByAttr("review", "about", rec.ID) {
		if t := rv.Get("text"); t != "" {
			box.Reviews = append(box.Reviews, t)
			if len(box.Reviews) == 2 {
				break
			}
		}
	}
	return box
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}

// rankDocs runs BM25 over the document index and applies the §5.1 record
// features: documents associated with the triggered record move up, and the
// record's official homepage gets "preferential treatment by the ranker".
// Boosts can lift a document from below the top k, so with a triggered
// record it boosts and re-sorts the index's best 4k+20 and keeps k. Without
// one no score moves and the index's (score desc, ID asc) order is already
// the answer's (score desc, URL asc): it asks the index for k and sorts
// nothing. Either way only the answer becomes DocResults.
func (e *Engine) rankDocs(q Parsed, triggered *lrec.Record, k int) []DocResult {
	fetch := k*4 + 20
	if triggered == nil && k > 0 {
		fetch = k
	}
	raw := e.ranked(e.Woc.DocIndex, q.Raw, fetch)
	var homepage string
	if triggered != nil {
		homepage = strings.TrimSuffix(triggered.Get("homepage"), "/")
		for i := range raw {
			if slices.Contains(e.Woc.AssocOf(raw[i].ID), triggered.ID) {
				raw[i].Score += e.AssocBoost
			}
			if isHomepage(raw[i].ID, homepage) {
				raw[i].Score += e.HomepageBoost
			}
		}
		slices.SortFunc(raw, func(a, b index.Result) int {
			if a.Score != b.Score {
				return cmp.Compare(b.Score, a.Score)
			}
			return strings.Compare(a.ID, b.ID)
		})
		if k > 0 && len(raw) > k {
			raw = raw[:k]
		}
	}
	out := make([]DocResult, len(raw))
	for i, hit := range raw {
		out[i] = DocResult{URL: hit.ID, Score: hit.Score, RecordIDs: e.Woc.AssocOf(hit.ID),
			IsHomepage: isHomepage(hit.ID, homepage)}
	}
	return out
}

// isHomepage reports whether url is homepage, with or without a trailing
// slash; an empty homepage matches nothing.
func isHomepage(url, homepage string) bool {
	return homepage != "" && (url == homepage || url == homepage+"/")
}
