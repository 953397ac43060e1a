package extract

import (
	"strings"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
)

// Recognizer is one unit of domain knowledge: a named attribute plus a rule
// that recognizes values of that attribute in free text ("rules to identify
// zips/phones", §4.2). Recognizers are intentionally high-precision: the
// list extractor relies on them as anchors.
type Recognizer struct {
	Key  string
	Kind lrec.ValueKind
	// Match scans text and returns the first recognized value.
	Match func(text string) (value string, ok bool)
	// MatchNorm, when non-nil, is Match over already-normalized text
	// (textproc.Normalize applied). Recognizers whose matching starts by
	// normalizing the input (gazetteers) expose it so callers holding a
	// precomputed normalization (the shared page analysis) skip the
	// per-call re-tokenization. Match and MatchNorm must agree:
	// Match(t) == MatchNorm(Normalize(t)).
	MatchNorm func(norm string) (value string, ok bool)
	// Weight is the evidence strength this field contributes when scoring
	// candidate lists (anchor fields like zip/phone weigh more than, say,
	// free-text names).
	Weight float64
	// id names the rule for the per-text scan memo (see scan.go): equal ids
	// promise equal Match and MatchNorm results. The constructors below set
	// it; 0, a hand-assembled recognizer's, means its scans are not shared.
	id uint8
}

// kernelRecognizer wraps one of the byte-scanning kernels below. The rule's
// name is its scan id, so every domain's copy of a rule shares its scans.
func kernelRecognizer(key string, kind lrec.ValueKind, weight float64, match func(string) (string, bool)) Recognizer {
	return Recognizer{Key: key, Kind: kind, Match: match, Weight: weight, id: scanID("kernel\x00" + key)}
}

// ZipRecognizer recognizes 5-digit California-range zip codes.
func ZipRecognizer() Recognizer { return kernelRecognizer("zip", lrec.KindZip, 1.0, matchZip) }

// PhoneRecognizer recognizes North-American phone numbers in the formats
// used across the corpus.
func PhoneRecognizer() Recognizer { return kernelRecognizer("phone", lrec.KindPhone, 1.0, matchPhone) }

// PriceRecognizer recognizes dollar amounts.
func PriceRecognizer() Recognizer { return kernelRecognizer("price", lrec.KindPrice, 0.8, matchPrice) }

// StreetRecognizer recognizes street addresses by number + suffix shape.
func StreetRecognizer() Recognizer {
	return kernelRecognizer("street", lrec.KindAddress, 0.9, matchStreet)
}

// YearRecognizer recognizes plausible publication years.
func YearRecognizer() Recognizer { return kernelRecognizer("year", lrec.KindDate, 0.6, matchYear) }

// DateRecognizer recognizes ISO dates.
func DateRecognizer() Recognizer { return kernelRecognizer("date", lrec.KindDate, 0.9, matchDate) }

// RatingRecognizer recognizes "4.2 stars"-style ratings.
func RatingRecognizer() Recognizer {
	return kernelRecognizer("rating", lrec.KindNumber, 0.5, matchRating)
}

// HoursRecognizer recognizes opening-hours strings.
func HoursRecognizer() Recognizer { return kernelRecognizer("hours", lrec.KindText, 0.5, matchHours) }

// MegapixelRecognizer recognizes camera resolutions.
func MegapixelRecognizer() Recognizer {
	return kernelRecognizer("megapixels", lrec.KindNumber, 0.7, matchMegapixels)
}

// The recognizer kernels. Each returns, byte for byte, what Go's regexp
// package returns for the expression in its comment: the leftmost match, or
// its group 1 where the comment marks one (recognize_ref_test.go keeps the
// expressions as the oracle). Matching is leftmost-first, not longest: at the
// first start that matches, the expression's own priority order — greedy
// before lazy, earlier alternative before later — picks the match. \b is
// ASCII: the word bytes are [0-9A-Za-z_] and every byte ≥ 0x80 is a non-word
// byte, which is what the regexp package's rune-wise \b reads too, since
// every match starts and ends on an ASCII byte. A kernel tries a start only
// at a byte its rule can begin with.

func inRange(c, lo, hi byte) bool { return c >= lo && c <= hi }
func isDigit(c byte) bool         { return inRange(c, '0', '9') }
func isLetter(c byte) bool        { return inRange(c, 'a', 'z') || inRange(c, 'A', 'Z') }
func isWord(c byte) bool          { return isDigit(c) || isLetter(c) || c == '_' }

// boundaryBefore is \b in front of a word byte at s[i]; boundaryAfter is \b
// behind a word byte at s[i-1].
func boundaryBefore(s string, i int) bool { return i == 0 || !isWord(s[i-1]) }
func boundaryAfter(s string, i int) bool  { return i == len(s) || !isWord(s[i]) }

// digitsAt returns the length of the run of digits at s[i:].
func digitsAt(s string, i int) int {
	n := i
	for n < len(s) && isDigit(s[n]) {
		n++
	}
	return n - i
}

// pluralEnd steps over an optional s at s[i] that a \b follows: `s?\b` takes
// the s when it is there, because without it the \b would fall between two
// letters.
func pluralEnd(s string, i int) int {
	if i < len(s) && s[i] == 's' {
		return i + 1
	}
	return i
}

// matchZip: \b(9[0-9]{4})\b
func matchZip(s string) (string, bool) {
	for i := 0; i+5 <= len(s); i++ {
		if s[i] == '9' && boundaryBefore(s, i) && digitsAt(s, i+1) == 4 && boundaryAfter(s, i+5) {
			return s[i : i+5], true
		}
	}
	return "", false
}

// matchPhone: \(?([2-9][0-9]{2})\)?[ .-]([0-9]{3})[ .-]([0-9]{4})\b — no \b
// in front. A parenthesis that is there is always taken: leaving it out puts
// it where a digit or a separator must be.
func matchPhone(s string) (string, bool) {
	sep := func(c byte) bool { return c == ' ' || c == '.' || c == '-' }
	for i := 0; i < len(s); i++ {
		j := i
		if s[j] == '(' {
			j++
		}
		if j+3 > len(s) || !inRange(s[j], '2', '9') || !isDigit(s[j+1]) || !isDigit(s[j+2]) {
			continue
		}
		if j += 3; j < len(s) && s[j] == ')' {
			j++
		}
		if j+9 <= len(s) && sep(s[j]) && digitsAt(s, j+1) >= 3 && sep(s[j+4]) && digitsAt(s, j+5) >= 4 &&
			boundaryAfter(s, j+9) {
			return s[i : j+9], true
		}
	}
	return "", false
}

// matchPrice: \$[0-9]+(?:\.[0-9]{2})?\b — the cents when a \b follows them,
// else the dollars when one follows those ("$12.955" is "$12"). Giving back
// a digit leaves a digit behind, where neither can follow.
func matchPrice(s string) (string, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] != '$' {
			continue
		}
		k := i + 1 + digitsAt(s, i+1)
		if k == i+1 {
			continue
		}
		if k+3 <= len(s) && s[k] == '.' && isDigit(s[k+1]) && isDigit(s[k+2]) && boundaryAfter(s, k+3) {
			return s[i : k+3], true
		}
		if boundaryAfter(s, k) {
			return s[i:k], true
		}
	}
	return "", false
}

// matchYear: \b(19[5-9][0-9]|20[0-4][0-9])\b
func matchYear(s string) (string, bool) {
	for i := 0; i+4 <= len(s); i++ {
		lead := s[i] == '1' && s[i+1] == '9' && inRange(s[i+2], '5', '9') ||
			s[i] == '2' && s[i+1] == '0' && inRange(s[i+2], '0', '4')
		if lead && isDigit(s[i+3]) && boundaryBefore(s, i) && boundaryAfter(s, i+4) {
			return s[i : i+4], true
		}
	}
	return "", false
}

// matchDate: \b(20[0-4][0-9])-([01][0-9])-([0-3][0-9])\b
func matchDate(s string) (string, bool) {
	for i := 0; i+10 <= len(s); i++ {
		if s[i] == '2' && s[i+1] == '0' && inRange(s[i+2], '0', '4') && isDigit(s[i+3]) && s[i+4] == '-' &&
			inRange(s[i+5], '0', '1') && isDigit(s[i+6]) && s[i+7] == '-' &&
			inRange(s[i+8], '0', '3') && isDigit(s[i+9]) && boundaryBefore(s, i) && boundaryAfter(s, i+10) {
			return s[i : i+10], true
		}
	}
	return "", false
}

// matchRating: \b([0-5]\.[0-9]) stars?\b, group 1.
func matchRating(s string) (string, bool) {
	for i := 0; i+8 <= len(s); i++ {
		if inRange(s[i], '0', '5') && s[i+1] == '.' && isDigit(s[i+2]) && s[i+3:i+8] == " star" &&
			boundaryBefore(s, i) && boundaryAfter(s, pluralEnd(s, i+8)) {
			return s[i : i+3], true
		}
	}
	return "", false
}

// matchMegapixels: \b([0-9]{1,3}) megapixels?\b, group 1. Giving back a
// digit leaves a digit where the space must be, so only a whole run of one
// to three digits counts.
func matchMegapixels(s string) (string, bool) {
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) || !boundaryBefore(s, i) {
			continue
		}
		n := digitsAt(s, i)
		if n <= 3 && strings.HasPrefix(s[i+n:], " megapixel") &&
			boundaryAfter(s, pluralEnd(s, i+n+len(" megapixel"))) {
			return s[i : i+n], true
		}
	}
	return "", false
}

// matchHours: \b(Mon|Tue|Wed|Thu|Fri|Sat|Sun)[a-z]*[ -].*[0-9]{1,2}:[0-9]{2}
// The greedy .* runs to the end of the line and gives back from there, so
// the match ends after the last "d:dd" on the line ("dd:dd" ends where its
// own "d:dd" does). [a-z]* can only give back a letter where [ -] must be.
func matchHours(s string) (string, bool) {
	for i := 0; i+3 <= len(s); i++ {
		switch s[i : i+3] {
		case "Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun":
		default:
			continue
		}
		a := i + 3
		for a < len(s) && inRange(s[a], 'a', 'z') {
			a++
		}
		if !boundaryBefore(s, i) || a == len(s) || s[a] != ' ' && s[a] != '-' {
			continue
		}
		eol := len(s)
		if n := strings.IndexByte(s[a+1:], '\n'); n >= 0 {
			eol = a + 1 + n
		}
		for p := eol - 4; p > a; p-- {
			if isDigit(s[p]) && s[p+1] == ':' && isDigit(s[p+2]) && isDigit(s[p+3]) {
				return s[i : p+4], true
			}
		}
		i = eol // a later start on this line could only read less of it
	}
	return "", false
}

// streetSuffixes anchor street-address recognition.
var streetSuffixes = []string{
	"St", "Ave", "Blvd", "Rd", "Real", "Expy", "Way", "Dr", "Ln", "Ct",
}

// matchStreet: \b[0-9]{1,5} (?:[0-9]{1,2}(?:st|nd|rd|th) )?(?:[A-Z][A-Za-z .]*? )?(St|Ave|…)\b,
// the suffixes in streetSuffixes order. The priority order is the ordinal
// before none, then the name before none, the name's lazy run shortest
// first ("12 St Ave" is all of it). A house number of six or more digits
// matches nowhere: no \b falls inside its run.
func matchStreet(s string) (string, bool) {
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) || !boundaryBefore(s, i) {
			continue
		}
		n := digitsAt(s, i)
		p := i + n + 1 // past the house number and its space
		if n > 5 || p > len(s) || s[p-1] != ' ' {
			continue
		}
		if q := streetOrdinal(s, p); q > 0 {
			if e := streetName(s, q); e > 0 {
				return s[i:e], true
			}
		}
		if e := streetName(s, p); e > 0 {
			return s[i:e], true
		}
	}
	return "", false
}

// streetOrdinal matches `[0-9]{1,2}(?:st|nd|rd|th) ` at s[p:] and returns
// its end, or 0.
func streetOrdinal(s string, p int) int {
	n := digitsAt(s, p)
	if n == 0 || n > 2 || p+n+3 > len(s) || s[p+n+2] != ' ' {
		return 0
	}
	switch s[p+n : p+n+2] {
	case "st", "nd", "rd", "th":
		return p + n + 3
	}
	return 0
}

// streetName matches `(?:[A-Z][A-Za-z .]*? )?(St|Ave|…)\b` at s[q:] and
// returns its end, or 0.
func streetName(s string, q int) int {
	if q < len(s) && inRange(s[q], 'A', 'Z') {
		for m := q + 1; m < len(s) && (s[m] == ' ' || s[m] == '.' || isLetter(s[m])); m++ {
			if s[m] != ' ' {
				continue
			}
			if e := streetSuffix(s, m+1); e > 0 {
				return e
			}
		}
	}
	return streetSuffix(s, q)
}

func streetSuffix(s string, at int) int {
	for _, suf := range streetSuffixes {
		if strings.HasPrefix(s[at:], suf) && boundaryAfter(s, at+len(suf)) {
			return at + len(suf)
		}
	}
	return 0
}

// GazetteerRecognizer recognizes values from a closed vocabulary (cities,
// cuisines, venues). Matching is token-subsequence based and case-blind.
// Both match paths are allocation-free per call: matching walks the
// normalized text for token-boundary occurrences of each (pre-normalized)
// vocabulary entry instead of building padded copies.
func GazetteerRecognizer(key string, kind lrec.ValueKind, vocab []string, weight float64) Recognizer {
	norm := make(map[string]string, len(vocab))
	for _, v := range vocab {
		norm[textproc.Normalize(v)] = v
	}
	// Longest entries first so "San Jose" beats "Jose".
	keys := make([]string, 0, len(norm))
	for k := range norm {
		keys = append(keys, k)
	}
	sortByLenDesc(keys)
	matchNorm := func(nt string) (string, bool) {
		for _, k := range keys {
			if containsTokenRun(nt, k) {
				return norm[k], true
			}
		}
		return "", false
	}
	return Recognizer{Key: key, Kind: kind, Weight: weight,
		MatchNorm: matchNorm,
		Match: func(text string) (string, bool) {
			return matchNorm(textproc.Normalize(text))
		},
		id: scanID("gazetteer\x00" + strings.Join(vocab, "\x00"))}
}

// containsTokenRun reports whether the normalized text norm contains k as a
// run of whole tokens — the same predicate as padding both with spaces and
// calling strings.Contains, without the two temporary strings.
func containsTokenRun(norm, k string) bool {
	if k == "" {
		return norm == ""
	}
	for from := 0; ; {
		i := strings.Index(norm[from:], k)
		if i < 0 {
			return false
		}
		i += from
		if (i == 0 || norm[i-1] == ' ') &&
			(i+len(k) == len(norm) || norm[i+len(k)] == ' ') {
			return true
		}
		from = i + 1
	}
}

func sortByLenDesc(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && (len(ss[j]) > len(ss[j-1]) ||
			(len(ss[j]) == len(ss[j-1]) && ss[j] < ss[j-1])); j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// Constraint is a statistical domain constraint on extracted records (§4.2:
// "each restaurant is associated with a single zip code and has one or two
// phone numbers").
type Constraint struct {
	Key       string
	MaxValues int
}

// Domain bundles the domain knowledge for extracting one concept: the
// recognizers, the attribute treated as the record's name, the fields whose
// presence is required evidence that a list is really about this concept,
// and multiplicity constraints.
type Domain struct {
	Concept     string
	Recognizers []Recognizer
	// NameFrom selects where the record name comes from: "anchor" (link
	// text), "first-span" (first unrecognized text span), or "" (no name).
	NameFrom string
	// NameKey is the attribute the name is stored under ("name" or "title").
	NameKey string
	// Evidence lists attribute keys at least one of which must be present
	// in a list item for the item to count as a record of this concept.
	Evidence []string
	// MinEvidenceFrac is the fraction of items in a candidate list that must
	// carry evidence for the list to be accepted (default 0.5).
	MinEvidenceFrac float64
	Constraints     []Constraint
}

// RestaurantDomain returns the restaurant domain knowledge used throughout
// the experiments, with the city gazetteer supplied by the caller.
func RestaurantDomain(cities []string, cuisines []string) Domain {
	return Domain{
		Concept: "restaurant",
		Recognizers: []Recognizer{
			ZipRecognizer(), PhoneRecognizer(), StreetRecognizer(),
			GazetteerRecognizer("city", lrec.KindCity, cities, 0.7),
			GazetteerRecognizer("cuisine", lrec.KindCategory, cuisines, 0.4),
			RatingRecognizer(), HoursRecognizer(),
		},
		NameFrom: "anchor",
		NameKey:  "name",
		Evidence: []string{"zip", "phone", "street"},
		Constraints: []Constraint{
			{Key: "zip", MaxValues: 1},
			{Key: "phone", MaxValues: 2},
			{Key: "street", MaxValues: 1},
		},
	}
}

// MenuDomain returns the domain knowledge for menu-item lists.
func MenuDomain() Domain {
	return Domain{
		Concept:     "menuitem",
		Recognizers: []Recognizer{PriceRecognizer()},
		NameFrom:    "first-span",
		NameKey:     "name",
		Evidence:    []string{"price"},
		Constraints: []Constraint{{Key: "price", MaxValues: 1}},
	}
}

// PublicationDomain returns the domain knowledge for publication lists.
func PublicationDomain(venues []string) Domain {
	return Domain{
		Concept: "publication",
		Recognizers: []Recognizer{
			YearRecognizer(),
			GazetteerRecognizer("venue", lrec.KindText, venues, 1.0),
		},
		NameFrom:        "anchor",
		NameKey:         "title",
		Evidence:        []string{"venue", "year"},
		MinEvidenceFrac: 0.6,
		Constraints:     []Constraint{{Key: "year", MaxValues: 1}},
	}
}

// EventDomain returns the domain knowledge for local-event pages (city
// calendars): an ISO date is the required evidence, the city comes from the
// gazetteer, and a single-date constraint keeps calendar *indexes* (many
// dates) from being read as one event.
func EventDomain(cities []string) Domain {
	return Domain{
		Concept: "event",
		Recognizers: []Recognizer{
			DateRecognizer(),
			GazetteerRecognizer("city", lrec.KindCity, cities, 0.7),
		},
		NameFrom:    "anchor",
		NameKey:     "name",
		Evidence:    []string{"date"},
		Constraints: []Constraint{{Key: "date", MaxValues: 1}},
	}
}

// HotelDomain returns the domain knowledge for hotel listings, the streamed
// corpus's second business domain. Evidence is keyed on the hotel-type word
// every hotel name carries (Inn, Suites, ...) rather than on phone/street:
// restaurant pages also expose phones and streets, and without the lexical
// key the hotel extractor would shadow-extract every restaurant directory.
// Hotels carry no collective matcher — aggregators render hotel names and
// phone digits consistently, so synthesized IDs merge cross-site mentions.
func HotelDomain(cities []string) Domain {
	return Domain{
		Concept: "hotel",
		Recognizers: []Recognizer{
			PhoneRecognizer(), StreetRecognizer(),
			GazetteerRecognizer("city", lrec.KindCity, cities, 0.7),
			GazetteerRecognizer("hoteltype", lrec.KindCategory,
				[]string{"hotel", "inn", "suites", "lodge", "resort", "motel"}, 0.4),
		},
		NameFrom: "anchor",
		NameKey:  "name",
		Evidence: []string{"hoteltype"},
		Constraints: []Constraint{
			{Key: "phone", MaxValues: 2},
			{Key: "street", MaxValues: 1},
		},
	}
}

// ProductDomain returns the domain knowledge for product listings.
func ProductDomain() Domain {
	return Domain{
		Concept:     "product",
		Recognizers: []Recognizer{PriceRecognizer(), MegapixelRecognizer()},
		NameFrom:    "anchor",
		NameKey:     "name",
		Evidence:    []string{"price"},
		Constraints: []Constraint{{Key: "price", MaxValues: 1}},
	}
}
