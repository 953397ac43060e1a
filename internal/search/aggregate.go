package search

import (
	"sort"
	"strings"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
)

// Aggregation pages (§3 "Value in Aggregation", §5.2): "an aggregated page
// with locations of different mexican food places in chicago, accompanied by
// reviews that commented on salsa from different sources, with meta
// information on the trust-worthiness of these sources".

// SourceRef is one source contributing to an aggregation page, with the
// §7.3 trust metadata derived from extraction confidence and agreement.
type SourceRef struct {
	URL string
	// Kind is a coarse role: "homepage", "aggregator", "review", "other".
	Kind string
	// Trust is the mean confidence of the values this source contributed.
	Trust float64
}

// AttrView is one attribute on an aggregation page: the chosen value plus
// any conflicting values still present.
type AttrView struct {
	Key       string
	Value     string
	Conflicts []string
	Support   int
}

// AggregationPage unifies everything known about one instance.
type AggregationPage struct {
	Record  *lrec.Record
	Title   string
	Attrs   []AttrView
	Sources []SourceRef
	Reviews []string
}

// Aggregate builds the aggregation page for a record ID.
func (e *Engine) Aggregate(recordID string) (*AggregationPage, error) {
	defer e.Metrics.Time("search.aggregate.latency")()
	e.Metrics.Counter("search.aggregate.calls").Inc()
	rec, err := e.Woc.Records.Get(recordID)
	if err != nil {
		return nil, err
	}
	page := &AggregationPage{
		Record: rec,
		Title:  firstNonEmpty(rec.Get("name"), rec.Get("title"), rec.ID),
	}

	// Attribute views with conflicts surfaced rather than hidden.
	for _, k := range rec.Keys() {
		best, _ := rec.Best(k)
		av := AttrView{Key: k, Value: best.Value, Support: best.Support}
		bestNorm := textproc.Normalize(best.Value)
		for _, v := range rec.All(k) {
			if !textproc.EqualsNormalized(v.Value, bestNorm) {
				av.Conflicts = append(av.Conflicts, v.Value)
			}
		}
		page.Attrs = append(page.Attrs, av)
	}

	// Source trust: group provenance by URL, average confidence.
	trust := map[string][]float64{}
	for _, k := range rec.Keys() {
		for _, v := range rec.All(k) {
			if v.Prov.SourceURL != "" {
				trust[v.Prov.SourceURL] = append(trust[v.Prov.SourceURL], v.Confidence)
			}
		}
	}
	homepage := strings.TrimSuffix(rec.Get("homepage"), "/")
	seen := map[string]bool{}
	addSource := func(u, kind string, confs []float64) {
		if u == "" || seen[u] {
			return
		}
		seen[u] = true
		t := 0.0
		for _, c := range confs {
			t += c
		}
		if len(confs) > 0 {
			t /= float64(len(confs))
		}
		page.Sources = append(page.Sources, SourceRef{URL: u, Kind: kind, Trust: t})
	}
	urls := make([]string, 0, len(trust))
	for u := range trust {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		addSource(u, sourceKind(u, homepage), trust[u])
	}
	// Linked pages beyond extraction provenance (reviews, mentions).
	for _, u := range e.Woc.PagesOf(rec.ID) {
		addSource(u, sourceKind(u, homepage), []float64{0.5})
	}

	for _, rv := range e.Woc.Records.ByAttr("review", "about", rec.ID) {
		if t := rv.Get("text"); t != "" {
			page.Reviews = append(page.Reviews, t)
		}
	}
	sort.Strings(page.Reviews)
	return page, nil
}

func sourceKind(u, homepage string) string {
	host := u
	if i := strings.IndexByte(u, '/'); i >= 0 {
		host = u[:i]
	}
	switch {
	case homepage != "" && (u == homepage || strings.HasPrefix(u, homepage+"/")):
		return "homepage"
	case strings.Contains(u, "/biz/") || strings.Contains(u, "/c/") || strings.Contains(u, "/search/"):
		return "aggregator"
	case strings.Contains(u, "/post/"):
		return "review"
	default:
		_ = host
		return "other"
	}
}
