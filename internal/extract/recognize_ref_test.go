package extract

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"conceptweb/internal/htmlx"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// The per-call recognisers the scan memo replaced, retained verbatim as the
// oracle: every check runs its own Match over its own text, once per call,
// per constraint and per domain. No non-test code calls them.

func (r Recognizer) refMatchSpan(sp *span) (string, bool) {
	if r.MatchNorm == nil {
		return r.Match(sp.text)
	}
	norm := sp.norm
	if norm == "" && sp.text != "" {
		norm = textproc.Normalize(sp.text)
	}
	return r.MatchNorm(norm)
}

func (r Recognizer) refMatchNormalized(text, norm string) (string, bool) {
	if r.MatchNorm != nil {
		return r.MatchNorm(norm)
	}
	return r.Match(text)
}

func refRecognizerFor(d Domain, key string) (Recognizer, bool) {
	for _, r := range d.Recognizers {
		if r.Key == key {
			return r, true
		}
	}
	return Recognizer{}, false
}

func refRecognizedByAnySpan(d Domain, sp *span) bool {
	for _, r := range d.Recognizers {
		if v, ok := r.refMatchSpan(sp); ok {
			if len(v)*2 >= len(strings.TrimSpace(sp.text)) {
				return true
			}
		}
	}
	return false
}

// refCountDistinct counts distinct normalized values of rec in text (bounded
// at 64 match scans).
func refCountDistinct(rec Recognizer, text string) int {
	seen := make(map[string]bool)
	rest := text
	for i := 0; i < 64; i++ { // bound the scan
		v, ok := rec.Match(rest)
		if !ok {
			break
		}
		seen[textproc.Normalize(v)] = true
		idx := strings.Index(rest, v)
		if idx < 0 {
			break
		}
		rest = rest[idx+len(v):]
	}
	return len(seen)
}

// refDistinctExceeds reports whether text holds more than max distinct
// normalized values of rec, returning as soon as the limit is crossed.
func refDistinctExceeds(rec Recognizer, text string, max int) bool {
	seen := make(map[string]bool)
	rest := text
	for i := 0; i < 64; i++ { // bound the scan
		v, ok := rec.Match(rest)
		if !ok {
			break
		}
		seen[textproc.Normalize(v)] = true
		if len(seen) > max {
			return true
		}
		idx := strings.Index(rest, v)
		if idx < 0 {
			break
		}
		rest = rest[idx+len(v):]
	}
	return false
}

// The regular expressions the recognizer kernels replaced, retained verbatim
// as their oracle.
var (
	zipRe    = regexp.MustCompile(`\b(9[0-9]{4})\b`)
	phoneRe  = regexp.MustCompile(`\(?([2-9][0-9]{2})\)?[ .-]([0-9]{3})[ .-]([0-9]{4})\b`)
	priceRe  = regexp.MustCompile(`\$[0-9]+(?:\.[0-9]{2})?\b`)
	yearRe   = regexp.MustCompile(`\b(19[5-9][0-9]|20[0-4][0-9])\b`)
	dateRe   = regexp.MustCompile(`\b(20[0-4][0-9])-([01][0-9])-([0-3][0-9])\b`)
	ratingRe = regexp.MustCompile(`\b([0-5]\.[0-9]) stars?\b`)
	hoursRe  = regexp.MustCompile(`\b(Mon|Tue|Wed|Thu|Fri|Sat|Sun)[a-z]*[ -].*[0-9]{1,2}:[0-9]{2}`)
	mpRe     = regexp.MustCompile(`\b([0-9]{1,3}) megapixels?\b`)
)

var streetRe = regexp.MustCompile(`\b[0-9]{1,5} (?:[0-9]{1,2}(?:st|nd|rd|th) )?(?:[A-Z][A-Za-z .]*? )?(` +
	strings.Join(streetSuffixes, "|") + `)\b`)

// kernelOracle pairs each kernel recogniser with its expression and the
// submatch group the recogniser yields.
var kernelOracle = []struct {
	rec   Recognizer
	re    *regexp.Regexp
	group int
}{
	{ZipRecognizer(), zipRe, 0}, {PhoneRecognizer(), phoneRe, 0}, {PriceRecognizer(), priceRe, 0},
	{StreetRecognizer(), streetRe, 0}, {YearRecognizer(), yearRe, 0}, {DateRecognizer(), dateRe, 0},
	{RatingRecognizer(), ratingRe, 1}, {HoursRecognizer(), hoursRe, 0}, {MegapixelRecognizer(), mpRe, 1},
}

// refMatch is what a recogniser over re returned: the leftmost match, or its
// submatch group.
func refMatch(re *regexp.Regexp, group int, text string) (string, bool) {
	if group == 0 {
		m := re.FindString(text)
		return m, m != ""
	}
	if m := re.FindStringSubmatch(text); m != nil {
		return m[group], true
	}
	return "", false
}

// checkKernels fails when a kernel's answer on text differs from its
// expression's, in value or in ok.
func checkKernels(t testing.TB, text string) {
	t.Helper()
	for _, k := range kernelOracle {
		want, wok := refMatch(k.re, k.group, text)
		if got, ok := k.rec.Match(text); got != want || ok != wok {
			t.Fatalf("%s in %q: kernel (%q, %v), expression (%q, %v)", k.rec.Key, text, got, ok, want, wok)
		}
	}
}

// refParseItem is the item parser over fresh per-call scans.
func refParseItem(e *ListExtractor, url string, item *htmlx.Node) (cand *Candidate, hasEvidence, ok bool) {
	d := e.Domain
	ia := analyzeItem(item)
	spans, full := ia.spans, ia.full

	for _, c := range d.Constraints {
		if rec, found := refRecognizerFor(d, c.Key); found {
			if refDistinctExceeds(rec, full, c.MaxValues) {
				return nil, false, false
			}
		}
	}

	cand = NewCandidate(d.Concept, url, e.Name())
	matched := make(map[string]bool)
	for _, rec := range d.Recognizers {
		found := false
		for i := range spans {
			sp := &spans[i]
			if v, okm := rec.refMatchSpan(sp); okm {
				cand.Add(rec.Key, v, attrConf(rec.Weight))
				if len(v)*2 >= len(strings.TrimSpace(sp.text)) {
					matched[sp.text] = true
				}
				found = true
				break
			}
		}
		if !found {
			if v, okm := rec.refMatchNormalized(full, ia.norm); okm {
				cand.Add(rec.Key, v, attrConf(rec.Weight)*0.9)
			}
		}
	}

	switch d.NameFrom {
	case "anchor":
		for i := range spans {
			sp := &spans[i]
			if sp.anchor && !matched[sp.text] {
				cand.Add(d.NameKey, sp.text, 0.9)
				break
			}
		}
	case "first-span":
		for i := range spans {
			sp := &spans[i]
			if !matched[sp.text] && !refRecognizedByAnySpan(d, sp) {
				cand.Add(d.NameKey, sp.text, 0.85)
				break
			}
		}
	}

	for _, k := range d.Evidence {
		if len(cand.Attrs[k]) > 0 {
			hasEvidence = true
			break
		}
	}
	if d.NameKey != "" && cand.Get(d.NameKey) == "" {
		hasEvidence = false
	}
	return cand, hasEvidence, true
}

// refListExtract is ListExtractor.ExtractAnalyzed over refParseItem: every
// item of an accepted group parsed in full, evidence or not.
func refListExtract(e *ListExtractor, pa *PageAnalysis) []*Candidate {
	minFrac := e.Domain.MinEvidenceFrac
	if minFrac == 0 {
		minFrac = 0.5
	}
	var out []*Candidate
	for _, group := range pa.Groups(max(e.MinItems, 2)) {
		var cands []*Candidate
		parsed := 0
		for _, item := range group {
			cand, hasEvidence, ok := refParseItem(e, pa.Page.URL, item)
			if !ok {
				continue
			}
			parsed++
			if hasEvidence {
				cands = append(cands, cand)
			}
		}
		if parsed == 0 {
			continue
		}
		listScore := float64(len(cands)) / float64(parsed)
		if listScore < minFrac {
			continue
		}
		for _, c := range cands {
			out = append(out, scaleConfidence(c, listScore))
		}
	}
	return out
}

// refDetail is the detail extractor over fresh per-call scans.
func refDetail(e *DetailExtractor, pa *PageAnalysis) []*Candidate {
	d := e.Domain
	full := pa.BodyText()

	for _, c := range d.Constraints {
		if rec, found := refRecognizerFor(d, c.Key); found {
			if refDistinctExceeds(rec, full, c.MaxValues) {
				return nil
			}
		}
	}

	cand := NewCandidate(d.Concept, pa.Page.URL, e.Name())
	for _, rec := range d.Recognizers {
		var v string
		var ok bool
		if rec.MatchNorm != nil {
			v, ok = rec.MatchNorm(pa.BodyNorm())
		} else {
			v, ok = rec.Match(full)
		}
		if ok {
			cand.Add(rec.Key, v, attrConf(rec.Weight))
		}
	}
	if d.NameKey != "" {
		if h1, ok := pa.BodyH1(); ok {
			cand.Add(d.NameKey, cleanHeading(h1), 0.9)
		} else if t, ok := pa.Title(); ok {
			cand.Add(d.NameKey, cleanHeading(t), 0.7)
		}
	}
	hasEvidence := false
	for _, k := range d.Evidence {
		if len(cand.Attrs[k]) > 0 {
			hasEvidence = true
			break
		}
	}
	if !hasEvidence || (d.NameKey != "" && cand.Get(d.NameKey) == "") {
		return nil
	}
	return []*Candidate{cand}
}

// scanDomains are the domains the recognise-once tests drive: the scale
// configuration's three, which share phone, street and the city gazetteer,
// and the demo world's others, one of which names records by first span.
func scanDomains(cities []string) []Domain {
	return []Domain{
		RestaurantDomain(cities, webgen.Cuisines()),
		EventDomain(cities),
		HotelDomain(cities),
		MenuDomain(),
		PublicationDomain([]string{"PODS", "VLDB", "SIGMOD"}),
		ProductDomain(),
	}
}

// checkScans asks one memo, in the order ops gives, for first matches and
// constraint verdicts of the domains' recognizers over texts (slot 0 the
// full text) and requires each answer to be what the per-call recogniser
// gives on the spot. Asking twice, and asking a twin recognizer of another
// domain, are what the memo exists for, so ops repeats and interleaves.
func checkScans(t testing.TB, domains []Domain, texts []string, ops []uint32) {
	t.Helper()
	norms := make([]string, len(texts))
	for i, s := range texts {
		norms[i] = textproc.Normalize(s)
	}
	var m scanMemo
	for _, op := range ops {
		d := &domains[int(op>>16)%len(domains)]
		rec := &d.Recognizers[int(op>>8)%len(d.Recognizers)]
		if max := int(op>>4) % 4; op&1 == 1 {
			got := m.exceeds(rec, texts[0], norms[0], max)
			if want := refDistinctExceeds(*rec, texts[0], max); got != want {
				t.Fatalf("%s.%s exceeds %d in %q: memo says %v, per-call %v", d.Concept, rec.Key, max, texts[0], got, want)
			}
			if want := refCountDistinct(*rec, texts[0]) > max; got != want {
				t.Fatalf("%s.%s exceeds %d in %q: memo says %v, count says %v", d.Concept, rec.Key, max, texts[0], got, want)
			}
			continue
		}
		slot := int(op>>1) % len(texts)
		gv, gok := m.first(rec, slot, texts[slot], norms[slot])
		wv, wok := rec.refMatchSpan(&span{text: texts[slot], norm: norms[slot]})
		if gv != wv || gok != wok {
			t.Fatalf("%s.%s first in %q: memo (%q, %v), per-call (%q, %v)", d.Concept, rec.Key, texts[slot], gv, gok, wv, wok)
		}
		if mv, mok := rec.Match(texts[slot]); mv != wv || mok != wok {
			t.Fatalf("%s.%s in %q: Match (%q, %v) and MatchNorm (%q, %v) disagree", d.Concept, rec.Key, texts[slot], mv, mok, wv, wok)
		}
	}
}

// scanFragments are what the seeded texts are spliced from: values every
// recognizer finds, near-misses, and the shapes on which slicing the text
// after a match changes what the next \b sees — digits directly after a
// match ("950149501"), a phone running into a zip, a value repeated with
// other case and spacing.
var scanFragments = []string{
	"95014", "95112", "9501495014", "950149501", "95014-95112", "x95014", "94040 ",
	"(408) 555-0134", "408-555-0134", "408.555.0199", "(408) 555-013495014", "408 555 0134 408 555 0134",
	"123 Main St", "123 main st", "77 N 1st St", "9 El Camino Real", "1234 Stevens Creek Blvd", "12 3rd Ave",
	"$12.95", "$12", "$7.5", "2009-06-29", "2009-06-2995014", "2007", "1999 2007",
	"4.2 stars", "5.0 star", "Mon-Sun 11:00-22:00", "Open Fri 9:30", "24 megapixels", "8 megapixel",
	"San Jose", "san  jose", "SAN JOSE", "Cupertino", "Sanjose", "Palm Inn", "Grand Hotel & Suites",
	"italian", "Thai", "PODS", "vldb 2008", "Blue Palm American Restaurant", "Pizza My Heart",
	" ", ", ", " - ", "\n", "é", "call ", " and ", "·",
}

func seededText(rng *rand.Rand, max int) string {
	var b strings.Builder
	for n := rng.Intn(max + 1); n > 0; n-- {
		b.WriteString(scanFragments[rng.Intn(len(scanFragments))])
		if rng.Intn(3) > 0 {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// TestRecognizeOnceMatchesPerCall: on seeded random item and body texts,
// every first match the memo returns is string-identical to the per-call
// recogniser's, and every constraint verdict equal to the per-call 64-scan
// loop's and to the full distinct count's — whatever the order of asking,
// however often, and whichever domain's copy of a recognizer asks.
func TestRecognizeOnceMatchesPerCall(t *testing.T) {
	domains := scanDomains([]string{"San Jose", "Cupertino", "Palo Alto", "Jose"})
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 1500; round++ {
		texts := make([]string, 1+rng.Intn(5))
		texts[0] = seededText(rng, 3+rng.Intn(40)) // an item, or a body
		for i := 1; i < len(texts); i++ {
			texts[i] = seededText(rng, 4)
		}
		ops := make([]uint32, 4+rng.Intn(60))
		for i := range ops {
			ops[i] = rng.Uint32()
		}
		checkScans(t, domains, texts, ops)
	}
}

// TestRecognizeOnceBoundedScan pins the 64-scan bound: a text of 200
// distinct zips is read no further by the memo than by the per-call loop.
func TestRecognizeOnceBoundedScan(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "9%04d ", i)
	}
	text, rec := b.String(), ZipRecognizer()
	var m scanMemo
	for _, max := range []int{0, 1, 63, 64, 100} {
		got := m.exceeds(&rec, text, "", max)
		if want := refDistinctExceeds(rec, text, max); got != want {
			t.Errorf("max %d: memo says %v, per-call %v", max, got, want)
		}
	}
	if n := 1 + len(m.runs[0].more); n != 64 {
		t.Errorf("memo read %d values, the per-call loop reads 64", n)
	}
}

// TestParsersMatchPerCall: over every page of six heavy-tail hosts, each
// domain's item parser (every group member and every singleton slot), list
// extractor and detail extractor, reading through one shared analysis per
// page, return exactly what the retained per-call parsers return: the same
// (ok, hasEvidence) for every item, and the same candidate for every item
// with evidence. The last domain's name is its evidence, so no item of it is
// turned away before its name is read.
func TestParsersMatchPerCall(t *testing.T) {
	w := webgen.NewStreamWorld(webgen.HeavyTailConfig(2000))
	rendered := hostPages(t, w, "localplates.example", "roomlister.example", "events-0001.example",
		"eats-0000.example", "metroguide-0000.example", "branmarsh-palm-cafe-1.example")
	domains := append(scanDomains(w.Cities()), Domain{Concept: "venue", NameFrom: "anchor", NameKey: "name",
		Recognizers: []Recognizer{PhoneRecognizer()}, Evidence: []string{"name"}})
	items, details := 0, 0
	for _, pages := range rendered {
		for u, html := range pages {
			pa := Analyze(webgraph.NewPage(u, html))
			var nodes []*htmlx.Node
			for _, g := range pa.Groups(2) {
				nodes = append(nodes, g...)
			}
			singles, _ := pa.Singles(2)
			nodes = append(nodes, singles...)
			checkKernels(t, pa.BodyText())
			for di := range domains {
				le := &ListExtractor{Domain: domains[di]}
				for _, n := range nodes {
					if di == 0 {
						ia := analyzeItem(n)
						checkKernels(t, ia.full)
						for _, sp := range ia.spans {
							checkKernels(t, sp.text)
						}
					}
					gc, ge, gok := le.parseItem(pa, n)
					wc, we, wok := refParseItem(le, u, n)
					if ge != we || gok != wok || (gc != nil) != ge ||
						ge && sameCandidates([]*Candidate{gc}, []*Candidate{wc}) != nil {
						t.Fatalf("%s, %s item %q:\n got %+v %v %v\nwant %+v %v %v", u, le.Domain.Concept, n.Text(), gc, ge, gok, wc, we, wok)
					}
					items++
				}
				if err := sameCandidates(le.ExtractAnalyzed(pa), refListExtract(le, Analyze(pa.Page))); err != nil {
					t.Fatalf("%s, %s lists: %v", u, le.Domain.Concept, err)
				}
				de := &DetailExtractor{Domain: domains[di]}
				if err := sameCandidates(de.ExtractAnalyzed(pa), refDetail(de, Analyze(pa.Page))); err != nil {
					t.Fatalf("%s, %s detail: %v", u, de.Domain.Concept, err)
				}
				details++
			}
		}
	}
	if items < 10000 || details < 1000 {
		t.Fatalf("compared %d item parses and %d detail passes: the hosts are too small to mean anything", items, details)
	}
}

// FuzzRecognizeOnce feeds arbitrary text to the scan memo as an item's full
// text and, cut at arbitrary points, its spans: whatever is asked, in
// whatever order, the memo answers as the per-call recognisers do.
func FuzzRecognizeOnce(f *testing.F) {
	for _, s := range scanFragments {
		f.Add(s+" "+s, uint64(0x9e3779b97f4a7c15))
	}
	f.Add("(408) 555-013495014 9501495014 123 Main St San Jose 2009-06-2995014", uint64(12345))
	domains := scanDomains([]string{"San Jose", "Cupertino", "Jose"})
	f.Fuzz(func(t *testing.T, text string, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		texts := []string{text}
		for rest := text; len(rest) > 0 && len(texts) < 6; {
			n := 1 + rng.Intn(len(rest))
			texts = append(texts, rest[:n])
			rest = rest[n:]
		}
		ops := make([]uint32, 48)
		for i := range ops {
			ops[i] = rng.Uint32()
		}
		checkScans(t, domains, texts, ops)
		for _, s := range texts {
			checkKernels(t, s)
		}
	})
}

// kernelEdges are the texts on which a kernel most easily parts from its
// expression: a six-digit house number, a lazy street name that is itself a
// suffix, an ordinal street, a greedy .* that must stop at a newline, cents
// that run on, a plural that runs on, a four-digit resolution, and a zip
// behind invalid UTF-8 and behind a non-ASCII letter.
var kernelEdges = []string{
	"123456 Main St", "12 St Ave", "77 N 1st St Expy", "Mon 9:30 x 10:00\n11:00", "$12.955",
	"5.0 starsX", "1234 megapixels", "\xff95014", "é95014",
}

// TestKernelsMatchRegexp holds every kernel to its expression on the edge
// texts and the fragments the scan tests splice, and pins what the
// expressions say on the edges, so that the oracle is seen to cover them.
func TestKernelsMatchRegexp(t *testing.T) {
	for _, s := range append(append([]string{}, kernelEdges...), scanFragments...) {
		checkKernels(t, s)
	}
	for _, c := range []struct {
		rec       Recognizer
		text, get string
	}{
		{StreetRecognizer(), "123456 Main St", ""},
		{StreetRecognizer(), "12 St Ave", "12 St Ave"},
		{StreetRecognizer(), "12 3rd Ave", "12 3rd Ave"},
		{StreetRecognizer(), "at 9 N Ave", "9 N Ave"},
		{StreetRecognizer(), "77 N 1st St Expy", ""},
		{HoursRecognizer(), "Mon 9:30 x 10:00\n11:00", "Mon 9:30 x 10:00"},
		{HoursRecognizer(), "Sun closed\nMon 9:00", "Mon 9:00"},
		{PriceRecognizer(), "$12.955", "$12"},
		{RatingRecognizer(), "5.0 starsX", ""},
		{MegapixelRecognizer(), "1234 megapixels", ""},
		{ZipRecognizer(), "\xff95014", "95014"},
		{ZipRecognizer(), "é95014", "95014"},
	} {
		checkKernels(t, c.text)
		if got, ok := c.rec.Match(c.text); got != c.get || ok != (c.get != "") {
			t.Errorf("%s in %q = (%q, %v), want %q", c.rec.Key, c.text, got, ok, c.get)
		}
	}
}

// FuzzRecognizerKernels: for arbitrary bytes, every kernel returns the value
// and ok its expression returns. No memo and no domains stand in between.
func FuzzRecognizerKernels(f *testing.F) {
	for _, s := range append(append([]string{}, kernelEdges...), scanFragments...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkKernels(t, text)
	})
}
