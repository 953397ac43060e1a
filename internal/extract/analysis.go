package extract

import (
	"sort"
	"strings"
	"sync"

	"conceptweb/internal/htmlx"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgraph"
)

// PageAnalysis caches the per-page DOM passes that every extraction operator
// used to redo independently: repeated-sibling groups, singleton template
// slots, per-item text spans (with precomputed normalizations for gazetteer
// matching), the boilerplate-free body and main text, and label/value pairs —
// and what every recognizer found in those texts (scanMemo). One analysis is
// computed per page and shared across all operators and all domains running
// over that page: the DOM walks run once instead of once per domain, and a
// recognizer two domains carry (phone, street, the city gazetteer) scans each
// text once.
//
// Every derived view is built lazily under a sync.Once and is immutable
// afterwards, and the recognizer memo is guarded by a mutex, so a single
// PageAnalysis may be shared by operators running on different goroutines.
type PageAnalysis struct {
	Page *webgraph.Page

	siblingsOnce sync.Once
	groups       [][]*htmlx.Node // repeated groups at minItems=2
	steps        []slotStep      // see mayHoldTrusted
	anyStep      bool            // steps is not known: some tag holds a '.'

	groupsOnce sync.Once
	groupCPS   []string // ClassPathSignature of each group's first item

	// scanMu guards items (once groupsOnce has run), every item's scans and
	// bodyScans. The item parser and the detail extractor hold it for the
	// length of one item or one body.
	scanMu    sync.Mutex
	items     map[*htmlx.Node]*itemAnalysis // every group member, and each other item parsed so far
	bodyScans scanMemo                      // what recognizers found in BodyText

	singlesOnce sync.Once
	singles     []*htmlx.Node // singleton template slots at minItems=2, sorted
	singleCPS   []string      // ClassPathSignature aligned with singles

	bodyOnce  sync.Once
	bodyText  string // mainText of the body (nav/footer stripped)
	bodyH1    string // text of the body's first h1
	hasBodyH1 bool
	titleText string // text of the document title
	hasTitle  bool

	bodyNormOnce sync.Once
	bodyNorm     string // textproc.Normalize(bodyText)

	mainOnce sync.Once
	mainTxt  string // whole-document text minus topnav/footer/breadcrumb

	mainToksOnce sync.Once
	mainToks     []string // MainText tokenized, stopword-filtered, stemmed

	pairsOnce sync.Once
	pairs     [][2]string // label/value pairs from th/td rows and dt/dd runs
}

// itemAnalysis is one list item as every recognizer and constraint check
// reads it: its full text and text spans with their normalizations, computed
// once, and the memo of what recognizers found in them (slot 0 the full
// text, slot 1+j span j).
type itemAnalysis struct {
	full  string
	norm  string
	spans []span
	scans scanMemo
}

func analyzeItem(item *htmlx.Node) *itemAnalysis {
	spans := itemSpans(item)
	for i := range spans {
		spans[i].norm = textproc.Normalize(spans[i].text)
	}
	full := item.Text()
	return &itemAnalysis{full: full, norm: textproc.Normalize(full), spans: spans,
		scans: scanMemo{bits: make([]uint64, 2*(1+len(spans)))}}
}

// Analyze wraps p in a fresh analysis. All views are computed on first use.
func Analyze(p *webgraph.Page) *PageAnalysis {
	return &PageAnalysis{Page: p}
}

// AnalyzeAll wraps each page. The result slice is what site-level extraction
// shares across the per-domain tasks of one host.
func AnalyzeAll(pages []*webgraph.Page) []*PageAnalysis {
	pas := make([]*PageAnalysis, len(pages))
	for i, p := range pages {
		pas[i] = Analyze(p)
	}
	return pas
}

// slotStep is a class-path step of the page's sibling structure and the
// size of the smallest sibling group a node of that step is in.
type slotStep struct {
	step     string
	smallest int
}

// ensureSiblings is the one walk of the page's sibling structure: its
// repeated groups and the class-path steps of every node Singles can return.
func (pa *PageAnalysis) ensureSiblings() {
	pa.siblingsOnce.Do(func() {
		slots := make(map[string]int)
		pa.groups, pa.anyStep = siblingGroups(pa.Page.Doc, 2, slots)
		if pa.anyStep {
			return
		}
		pa.steps = make([]slotStep, 0, len(slots))
		for sig, smallest := range slots {
			tag, class, _ := strings.Cut(sig, ".") // no tag holds a '.'
			pa.steps = append(pa.steps, slotStep{internStep(tag, class), smallest})
		}
	})
}

// mayHoldTrusted is the propagate pass's pre-test: whether a node
// Singles(minItems) can return has its class-path step in tails — the
// "/"-suffixes of the site's trusted signatures (trustedTails). A single's
// signature ends in its own step, after a '/', so a single whose signature
// is trusted has its step in tails; false means no single of the page is
// trusted, and the singles need not be collected.
func (pa *PageAnalysis) mayHoldTrusted(tails map[string]bool, minItems int) bool {
	pa.ensureSiblings()
	if pa.anyStep {
		return true
	}
	for _, s := range pa.steps {
		if s.smallest < minItems && tails[s.step] {
			return true
		}
	}
	return false
}

func (pa *PageAnalysis) ensureGroups() {
	pa.groupsOnce.Do(func() {
		pa.ensureSiblings()
		pa.groupCPS = make([]string, len(pa.groups))
		pa.items = make(map[*htmlx.Node]*itemAnalysis)
		for gi, g := range pa.groups {
			pa.groupCPS[gi] = g[0].ClassPathSignature()
			for _, item := range g {
				if _, ok := pa.items[item]; !ok {
					pa.items[item] = analyzeItem(item)
				}
			}
		}
	})
}

// GroupsWithSigs returns the page's repeated-sibling groups of at least
// minItems members, with each group's first-item class-path signature.
// Groups are detected once at the base threshold of 2 and filtered upward:
// a group of >= m members is exactly a base group of >= m members, and the
// header-row filter depends only on the group's first item.
func (pa *PageAnalysis) GroupsWithSigs(minItems int) ([][]*htmlx.Node, []string) {
	pa.ensureGroups()
	if minItems <= 2 {
		return pa.groups, pa.groupCPS
	}
	var gs [][]*htmlx.Node
	var sigs []string
	for i, g := range pa.groups {
		if len(g) >= minItems {
			gs = append(gs, g)
			sigs = append(sigs, pa.groupCPS[i])
		}
	}
	return gs, sigs
}

// Groups returns the repeated-sibling groups of at least minItems members.
func (pa *PageAnalysis) Groups(minItems int) [][]*htmlx.Node {
	g, _ := pa.GroupsWithSigs(minItems)
	return g
}

// itemOf returns the item's analysis, building it on first sight for nodes
// that are not group members (pass-2 propagation singles). Callers hold
// scanMu.
func (pa *PageAnalysis) itemOf(item *htmlx.Node) *itemAnalysis {
	pa.ensureGroups()
	it := pa.items[item]
	if it == nil {
		it = analyzeItem(item)
		pa.items[item] = it
	}
	return it
}

// itemText returns the item's full text.
func (pa *PageAnalysis) itemText(item *htmlx.Node) string {
	pa.scanMu.Lock()
	defer pa.scanMu.Unlock()
	return pa.itemOf(item).full
}

// Singles returns the page's singleton template slots — element children
// whose sibling signature group is smaller than minItems — sorted stably by
// path signature, with each node's class-path signature aligned. This is the
// pass-2 input of site-level template propagation.
func (pa *PageAnalysis) Singles(minItems int) ([]*htmlx.Node, []string) {
	if minItems <= 2 {
		pa.singlesOnce.Do(func() {
			pa.singles, pa.singleCPS = collectSingles(pa.Page.Doc, 2)
		})
		return pa.singles, pa.singleCPS
	}
	nodes, cps := collectSingles(pa.Page.Doc, minItems)
	return nodes, cps
}

// collectSingles gathers element children whose sibling-signature group has
// fewer than minItems members, in first-seen signature order, then sorts
// them stably by path signature (the deterministic order pass 2 consumes).
func collectSingles(doc *htmlx.Node, minItems int) ([]*htmlx.Node, []string) {
	var singles []*htmlx.Node
	doc.Walk(func(n *htmlx.Node) bool {
		if n.Type != htmlx.ElementNode {
			return true
		}
		kids := n.ChildElements()
		bySig := make(map[string][]*htmlx.Node)
		var order []string
		for _, k := range kids {
			sig := internSig(k.Data, k.Class())
			if _, seen := bySig[sig]; !seen {
				order = append(order, sig)
			}
			bySig[sig] = append(bySig[sig], k)
		}
		for _, sig := range order {
			if g := bySig[sig]; len(g) < minItems {
				singles = append(singles, g...)
			}
		}
		return true
	})
	if len(singles) == 0 {
		return nil, nil
	}
	pathSigs := make([]string, len(singles))
	for i, n := range singles {
		pathSigs[i] = n.PathSignature()
	}
	idx := make([]int, len(singles))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return pathSigs[idx[a]] < pathSigs[idx[b]]
	})
	sorted := make([]*htmlx.Node, len(singles))
	cps := make([]string, len(singles))
	for k, i := range idx {
		sorted[k] = singles[i]
		cps[k] = singles[i].ClassPathSignature()
	}
	return sorted, cps
}

func (pa *PageAnalysis) ensureBody() {
	pa.bodyOnce.Do(func() {
		body := pa.Page.Doc.FindFirst("body")
		if body == nil {
			body = pa.Page.Doc
		}
		pa.bodyText = mainText(body)
		if h1 := body.FindFirst("h1"); h1 != nil {
			pa.hasBodyH1 = true
			pa.bodyH1 = h1.Text()
		}
		if t := pa.Page.Doc.FindFirst("title"); t != nil {
			pa.hasTitle = true
			pa.titleText = t.Text()
		}
	})
}

// BodyText returns the page body's text with nav/footer boilerplate removed
// — the detail extractor's haystack.
func (pa *PageAnalysis) BodyText() string {
	pa.ensureBody()
	return pa.bodyText
}

// BodyNorm returns the normalization of BodyText, shared by every gazetteer
// recognizer across every domain run on the page.
func (pa *PageAnalysis) BodyNorm() string {
	pa.bodyNormOnce.Do(func() {
		pa.bodyNorm = textproc.Normalize(pa.BodyText())
	})
	return pa.bodyNorm
}

// BodyH1 returns the text of the body's first h1 heading, if any.
func (pa *PageAnalysis) BodyH1() (string, bool) {
	pa.ensureBody()
	return pa.bodyH1, pa.hasBodyH1
}

// Title returns the text of the document's title element, if any.
func (pa *PageAnalysis) Title() (string, bool) {
	pa.ensureBody()
	return pa.titleText, pa.hasTitle
}

// MainText returns the whole-document text with topnav/footer/breadcrumb
// boilerplate removed — what semantic linking scores against records.
func (pa *PageAnalysis) MainText() string {
	pa.mainOnce.Do(func() {
		var b strings.Builder
		var walk func(n *htmlx.Node)
		walk = func(n *htmlx.Node) {
			if n.Type == htmlx.ElementNode &&
				(n.HasClass("topnav") || n.HasClass("footer") || n.HasClass("breadcrumb")) {
				return
			}
			if n.Type == htmlx.TextNode {
				b.WriteString(n.Data)
				b.WriteByte(' ')
				return
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(pa.Page.Doc)
		pa.mainTxt = htmlx.CollapseSpace(b.String())
	})
	return pa.mainTxt
}

// MainTokens returns MainText tokenized, stopword-filtered, and stemmed —
// the token stream the text matcher consumes. Callers must not mutate it.
func (pa *PageAnalysis) MainTokens() []string {
	pa.mainToksOnce.Do(func() {
		toks := textproc.RemoveStopwordsInPlace(textproc.Tokenize(pa.MainText()))
		pa.mainToks = textproc.StemInPlace(toks)
	})
	return pa.mainToks
}

// Pairs returns the page's (label, value) pairs from th/td table rows and
// dt/dd definition runs.
func (pa *PageAnalysis) Pairs() [][2]string {
	pa.pairsOnce.Do(func() {
		pa.pairs = collectPairs(pa.Page.Doc)
	})
	return pa.pairs
}
