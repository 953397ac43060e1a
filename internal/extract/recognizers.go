package extract

import (
	"regexp"
	"strconv"
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

// streetSuffixes anchor street-address recognition.
var streetSuffixes = []string{
	"St", "Ave", "Blvd", "Rd", "Real", "Expy", "Way", "Dr", "Ln", "Ct",
}

var streetRe = regexp.MustCompile(`\b[0-9]{1,5} (?:[0-9]{1,2}(?:st|nd|rd|th) )?(?:[A-Z][A-Za-z .]*? )?(` +
	strings.Join(streetSuffixes, "|") + `)\b`)

// hasDigit reports whether s holds an ASCII digit. Every match of every
// regexp above contains one, so text without a digit is rejected by a byte
// scan before the regexp engine starts — the common case for short spans.
func hasDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			return true
		}
	}
	return false
}

// regexpRecognizer recognizes by regular expression, yielding the whole
// match or, when group is 1, its first submatch. need, when non-zero, is a
// byte every match of re contains besides a digit (the ':' of an opening
// hour): like hasDigit, a necessary condition checked by a byte scan before
// the regexp engine starts.
func regexpRecognizer(key string, kind lrec.ValueKind, re *regexp.Regexp, group int, weight float64, need byte) Recognizer {
	match := func(text string) (string, bool) {
		if !hasDigit(text) || (need != 0 && strings.IndexByte(text, need) < 0) {
			return "", false
		}
		if group == 0 {
			m := re.FindString(text)
			return m, m != ""
		}
		if m := re.FindStringSubmatch(text); m != nil {
			return m[group], true
		}
		return "", false
	}
	return Recognizer{Key: key, Kind: kind, Match: match, Weight: weight,
		id: scanID("regexp\x00" + re.String() + "\x00" + strconv.Itoa(group))}
}

// ZipRecognizer recognizes 5-digit California-range zip codes.
func ZipRecognizer() Recognizer { return regexpRecognizer("zip", lrec.KindZip, zipRe, 0, 1.0, 0) }

// PhoneRecognizer recognizes North-American phone numbers in the formats
// used across the corpus.
func PhoneRecognizer() Recognizer {
	return regexpRecognizer("phone", lrec.KindPhone, phoneRe, 0, 1.0, 0)
}

// PriceRecognizer recognizes dollar amounts.
func PriceRecognizer() Recognizer {
	return regexpRecognizer("price", lrec.KindPrice, priceRe, 0, 0.8, 0)
}

// StreetRecognizer recognizes street addresses by number + suffix shape.
func StreetRecognizer() Recognizer {
	return regexpRecognizer("street", lrec.KindAddress, streetRe, 0, 0.9, 0)
}

// YearRecognizer recognizes plausible publication years.
func YearRecognizer() Recognizer { return regexpRecognizer("year", lrec.KindDate, yearRe, 0, 0.6, 0) }

// DateRecognizer recognizes ISO dates.
func DateRecognizer() Recognizer { return regexpRecognizer("date", lrec.KindDate, dateRe, 0, 0.9, 0) }

// RatingRecognizer recognizes "4.2 stars"-style ratings.
func RatingRecognizer() Recognizer {
	return regexpRecognizer("rating", lrec.KindNumber, ratingRe, 1, 0.5, 0)
}

// HoursRecognizer recognizes opening-hours strings.
func HoursRecognizer() Recognizer {
	return regexpRecognizer("hours", lrec.KindText, hoursRe, 0, 0.5, ':')
}

// MegapixelRecognizer recognizes camera resolutions.
func MegapixelRecognizer() Recognizer {
	return regexpRecognizer("megapixels", lrec.KindNumber, mpRe, 1, 0.7, 0)
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
