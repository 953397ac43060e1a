package extract

import (
	"conceptweb/internal/htmlx"
	"conceptweb/internal/webgraph"
)

// CitationExtractor applies a trained sequence tagger to citation-like list
// items, producing publication candidates. It is the deployment vehicle for
// the §4.1 semantic baseline: structure finds the citation strings, the
// tagger segments them.
type CitationExtractor struct {
	Tagger *Tagger
	// MinItems is the minimum repeated-sibling count to treat a list as a
	// publication list (default 2).
	MinItems int
}

// Name implements Operator.
func (e *CitationExtractor) Name() string { return "citation-tagger" }

// Extract implements Operator.
func (e *CitationExtractor) Extract(p *webgraph.Page) []*Candidate {
	return e.ExtractAnalyzed(Analyze(p))
}

// ExtractAnalyzed implements Operator over a shared page analysis.
func (e *CitationExtractor) ExtractAnalyzed(pa *PageAnalysis) []*Candidate {
	minItems := e.MinItems
	if minItems < 2 {
		minItems = 2
	}
	var out []*Candidate
	for _, group := range pa.Groups(minItems) {
		if group[0].Data != "li" {
			continue
		}
		for _, item := range group {
			if c := e.extractItem(pa, item); c != nil {
				out = append(out, c)
			}
		}
	}
	return out
}

func (e *CitationExtractor) extractItem(pa *PageAnalysis, item *htmlx.Node) *Candidate {
	text := pa.itemText(item)
	tokens := TokenizeCitation(text)
	if len(tokens) < 5 {
		return nil
	}
	labels := e.Tagger.Predict(tokens)
	spans := SpansOf(tokens, labels)
	title, hasTitle := spans[LabelTitle]
	if !hasTitle {
		return nil
	}
	cand := NewCandidate("publication", pa.Page.URL, e.Name())
	cand.Add("title", title, 0.8)
	if v, ok := spans[LabelVenue]; ok {
		cand.Add("venue", v, 0.8)
	}
	if y, ok := spans[LabelYear]; ok {
		cand.Add("year", y, 0.85)
	}
	if a, ok := spans[LabelAuthor]; ok {
		cand.Add("authors", a, 0.7)
	}
	return cand
}
