// Package classify implements relational page classification (§4.2): a
// global multinomial naive-Bayes text classifier, refined per site using the
// site's directory and link structure. The paper's argument: a global
// classifier "tends to be noisy given the vastly different content in the
// large collection of sites", but after "bootstrapping the pages of a site
// with the classification labels given by an inaccurate classifier, the
// relational structure present in that site can be used to revise them and
// get highly accurate classification" (citing graph-based methods [60]).
package classify

import (
	"math"
	"sort"

	"conceptweb/internal/htmlx"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgraph"
)

// Features extracts the token features of a page body for classification:
// lowercased, stemmed, stopwords removed. Boilerplate (nav, footer,
// breadcrumbs) is excluded — breadcrumbs in particular encode the site's
// directory structure, which belongs to the relational refinement step, not
// to the global text model.
func Features(p *webgraph.Page) []string {
	body := p.Doc.FindFirst("body")
	if body == nil {
		body = p.Doc
	}
	var toks []string
	var collect func(n *htmlx.Node)
	collect = func(n *htmlx.Node) {
		if n.Type == htmlx.ElementNode &&
			(n.HasClass("topnav") || n.HasClass("footer") || n.HasClass("breadcrumb")) {
			return
		}
		if n.Type == htmlx.TextNode {
			toks = textproc.TokenizeInto(n.Data, toks)
			return
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(body)
	return textproc.StemAll(textproc.RemoveStopwords(toks))
}

// NaiveBayes is a multinomial naive-Bayes classifier with Laplace smoothing.
type NaiveBayes struct {
	classes     []string
	classDocs   map[string]int
	classTokens map[string]int
	tokenCount  map[string]map[string]int
	vocab       map[string]bool
	totalDocs   int
}

// NewNaiveBayes returns an empty classifier.
func NewNaiveBayes() *NaiveBayes {
	return &NaiveBayes{
		classDocs:   make(map[string]int),
		classTokens: make(map[string]int),
		tokenCount:  make(map[string]map[string]int),
		vocab:       make(map[string]bool),
	}
}

// Train adds one labeled document.
func (nb *NaiveBayes) Train(tokens []string, class string) {
	if nb.tokenCount[class] == nil {
		nb.tokenCount[class] = make(map[string]int)
		nb.classes = append(nb.classes, class)
		sort.Strings(nb.classes)
	}
	nb.classDocs[class]++
	nb.totalDocs++
	for _, t := range tokens {
		nb.tokenCount[class][t]++
		nb.classTokens[class]++
		nb.vocab[t] = true
	}
}

// Predict returns the most probable class and the posterior distribution.
// An untrained classifier returns "" and nil.
func (nb *NaiveBayes) Predict(tokens []string) (string, map[string]float64) {
	if nb.totalDocs == 0 {
		return "", nil
	}
	logp := make(map[string]float64, len(nb.classes))
	v := float64(len(nb.vocab))
	for _, c := range nb.classes {
		lp := math.Log(float64(nb.classDocs[c]) / float64(nb.totalDocs))
		denom := float64(nb.classTokens[c]) + v
		for _, t := range tokens {
			if !nb.vocab[t] {
				continue // unseen tokens carry no signal
			}
			lp += math.Log((float64(nb.tokenCount[c][t]) + 1) / denom)
		}
		logp[c] = lp
	}
	// Normalize to probabilities (log-sum-exp).
	maxLp := math.Inf(-1)
	for _, lp := range logp {
		if lp > maxLp {
			maxLp = lp
		}
	}
	var z float64
	for _, lp := range logp {
		z += math.Exp(lp - maxLp)
	}
	probs := make(map[string]float64, len(logp))
	best, bestP := "", -1.0
	for _, c := range nb.classes {
		p := math.Exp(logp[c]-maxLp) / z
		probs[c] = p
		if p > bestP {
			best, bestP = c, p
		}
	}
	return best, probs
}
