// Package textproc provides the text-processing substrate for the web of
// concepts: tokenization, normalization, character n-grams, string-similarity
// measures (Jaro–Winkler, Jaccard, Dice, trigram, cosine), and TF-IDF
// vectorization.
//
// Entity matching (§6 of the paper) is built on attribute-similarity scores,
// and both the inverted index and the review→record language model consume
// normalized token streams, so this package sits underneath internal/index,
// internal/match, and internal/extract.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits s into lowercase word tokens. A token is a maximal run of
// letters or digits; everything else is a separator. Apostrophes inside words
// ("birk's") are dropped rather than splitting the word.
//
// The scan is bytewise over ASCII and decodes a rune only at a non-ASCII
// byte, so a "©" in a page footer costs that rune and not the page. A first
// pass counts tokens (so the result slice is allocated once, at exact
// capacity) and the second emits each token as a direct slice of s when it
// is already lowercase and holds no apostrophe — lowercase input costs
// exactly one allocation, whatever non-letters it carries.
func Tokenize(s string) []string {
	return TokenizeInto(s, nil)
}

// TokenizeInto appends the tokens of s to dst and returns the extended
// slice. Hot loops that tokenize many strings (index analysis, classifier
// features) pass a reused buffer to avoid a slice allocation per call; a nil
// dst behaves like Tokenize.
func TokenizeInto(s string, dst []string) []string {
	// Pass 1 counts the tokens: the rules of nextToken, without the bounds.
	n := 0
	inTok := false
	for i := 0; i < len(s); {
		var word bool
		if c := s[i]; c < utf8.RuneSelf {
			i++
			k := asciiKind[c]
			if k == kindApostrophe && inTok {
				continue
			}
			word = k >= kindLower
		} else {
			r, w := utf8.DecodeRuneInString(s[i:])
			i += w
			word = isWordRune(r)
		}
		if word && !inTok {
			n++
		}
		inTok = word
	}
	if n == 0 {
		return dst
	}
	if free := cap(dst) - len(dst); free < n {
		grown := make([]string, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; ; {
		start, end, clean := nextToken(s, i)
		if start == len(s) {
			return dst
		}
		if clean {
			dst = append(dst, s[start:end])
		} else {
			var b strings.Builder
			b.Grow(end - start)
			writeFolded(&b, s[start:end])
			dst = append(dst, b.String())
		}
		i = end
	}
}

// nextToken finds the first token of s at or after byte i: s[start:end] is
// its letters and digits with the apostrophes among them, and clean reports
// that it is already its own token — no uppercase rune, no apostrophe — so
// a slice of s can stand for it. start is len(s) when no token is left.
// An apostrophe extends a token it is inside of but never starts one.
func nextToken(s string, i int) (start, end int, clean bool) {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiKind[c] >= kindLower {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if isWordRune(r) {
			break
		}
		i += w
	}
	start, clean = i, true
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			k := asciiKind[c]
			if k == kindSeparator {
				return start, i, clean
			}
			if k&1 != 0 { // uppercase or apostrophe
				clean = false
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if !isWordRune(r) {
			return start, i, clean
		}
		if unicode.ToLower(r) != r {
			clean = false
		}
		i += w
	}
	return start, i, clean
}

// writeFolded writes token t as a token: lowercased, apostrophes dropped.
func writeFolded(b *strings.Builder, t string) {
	for i := 0; i < len(t); {
		c := t[i]
		if c < utf8.RuneSelf {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != '\'' {
				b.WriteByte(c)
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(t[i:])
		b.WriteRune(unicode.ToLower(r))
		i += w
	}
}

func isASCIIAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// What an ASCII byte is to the tokenizer. A kind >= kindLower is part of a
// word; an odd kind keeps a token from being its own normal form.
const (
	kindSeparator uint8 = iota
	kindApostrophe
	kindLower // a lowercase letter or a digit
	kindUpper
)

var asciiKind = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		switch {
		case c >= 'A' && c <= 'Z':
			t[c] = kindUpper
		case isASCIIAlnum(byte(c)):
			t[c] = kindLower
		case c == '\'':
			t[c] = kindApostrophe
		}
	}
	return t
}()

func isWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// stopwords is a compact English stopword list. It intentionally excludes
// words that carry meaning in queries for concepts (e.g. "best", "near").
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true,
	"he": true, "in": true, "is": true, "it": true, "its": true, "of": true,
	"on": true, "or": true, "that": true, "the": true, "to": true,
	"was": true, "were": true, "will": true, "with": true, "this": true,
	"i": true, "we": true, "you": true, "they": true, "my": true,
}

// IsStopword reports whether tok is a stopword (tok must be lowercase).
func IsStopword(tok string) bool { return stopwords[tok] }

// RemoveStopwords filters stopwords from toks, returning a new slice.
func RemoveStopwords(toks []string) []string {
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if !stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// RemoveStopwordsInPlace filters stopwords from toks, reusing its backing
// array. The caller must own toks (e.g. a fresh Tokenize result).
func RemoveStopwordsInPlace(toks []string) []string {
	out := toks[:0]
	for _, t := range toks {
		if !stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// Normalize lowercases s, strips punctuation, and collapses whitespace —
// the canonical form used when comparing attribute values across sources:
// the tokens of s joined by single spaces. It is one pass over s. While the
// output is a prefix of s nothing is written, so an already-normal s (or
// one that differs from its normal form only by trailing separators) comes
// back as s itself, or a prefix of it; otherwise the output is built once,
// in a buffer sized to what is left of s, which only a lowercase rune wider
// than its uppercase can outgrow.
func Normalize(s string) string {
	var b strings.Builder
	n := 0 // while b is empty: the output so far is s[:n]
	for i := 0; ; {
		start, end, clean := nextToken(s, i)
		if start == len(s) {
			break
		}
		i = end
		if b.Len() == 0 {
			if clean && (n == 0 && start == 0 || n > 0 && start == n+1 && s[n] == ' ') {
				n = end
				continue
			}
			b.Grow(n + 1 + len(s) - start)
			b.WriteString(s[:n])
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if clean {
			b.WriteString(s[start:end])
		} else {
			writeFolded(&b, s[start:end])
		}
	}
	if b.Len() == 0 {
		return s[:n]
	}
	return b.String()
}

// EqualsNormalized reports whether Normalize(s) == norm. On ASCII s it
// allocates nothing: it walks s as Tokenize's fast path does and compares
// each byte Normalize would emit with norm as it goes. Those bytes are a
// prefix of Normalize(s) even when a non-ASCII byte turns up later, so an
// early mismatch is final; a non-ASCII byte hands the rest to Normalize.
func EqualsNormalized(s, norm string) bool {
	j := 0 // bytes of norm matched so far
	inTok := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return Normalize(s) == norm
		}
		if !isASCIIAlnum(c) {
			if c != '\'' || !inTok {
				inTok = false
			}
			continue
		}
		if !inTok && j > 0 {
			// A token after the first is joined by one space.
			if j == len(norm) || norm[j] != ' ' {
				return false
			}
			j++
		}
		inTok = true
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if j == len(norm) || norm[j] != c {
			return false
		}
		j++
	}
	return j == len(norm)
}

// NormalizeKey aggressively normalizes s for blocking keys: lowercase
// alphanumerics only, no separators.
func NormalizeKey(s string) string {
	return strings.Join(Tokenize(s), "")
}

// NormalizeQuery canonicalizes a raw user query: trim, collapse runs of
// whitespace to single spaces, lowercase. It is the single normalization
// point shared by query parsing and serving-layer cache keys, so
// "Pizza  NYC " and "pizza nyc" parse identically and share one cache
// entry. Unlike Normalize it keeps punctuation: the tokenizer downstream
// owns those rules (e.g. intra-word apostrophes).
func NormalizeQuery(s string) string {
	return strings.ToLower(strings.Join(strings.Fields(s), " "))
}

// CharNGrams returns the character n-grams of s (after key normalization),
// padded with '^' and '$' sentinels so prefixes and suffixes are
// distinguished. Used for fuzzy blocking in entity matching. Grams are
// counted in runes, not bytes, so non-ASCII names ("café") yield valid
// UTF-8 grams instead of split multibyte sequences.
func CharNGrams(s string, n int) []string {
	rs := []rune("^" + NormalizeKey(s) + "$")
	if n <= 0 || len(rs) < n {
		return []string{string(rs)}
	}
	out := make([]string, 0, len(rs)-n+1)
	for i := 0; i+n <= len(rs); i++ {
		out = append(out, string(rs[i:i+n]))
	}
	return out
}

// TokenSet returns the set of distinct tokens in toks.
func TokenSet(toks []string) map[string]bool {
	set := make(map[string]bool, len(toks))
	for _, t := range toks {
		set[t] = true
	}
	return set
}

// Stem applies a light suffix-stripping stemmer (a small subset of Porter's
// rules) sufficient to conflate plurals and common verb forms in queries and
// page text: restaurants→restaurant, ratings→rating, reviewed→review.
func Stem(w string) string {
	if len(w) <= 3 {
		return w
	}
	switch {
	case strings.HasSuffix(w, "ies") && len(w) > 4:
		return w[:len(w)-3] + "y"
	case strings.HasSuffix(w, "sses"):
		return w[:len(w)-2]
	case strings.HasSuffix(w, "ss"):
		return w
	case strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "us"):
		return w[:len(w)-1]
	}
	switch {
	case strings.HasSuffix(w, "ing") && len(w) > 5:
		return undouble(w[:len(w)-3])
	case strings.HasSuffix(w, "ed") && len(w) > 4:
		return undouble(w[:len(w)-2])
	}
	return w
}

// undouble removes a trailing doubled consonant left by suffix stripping
// ("stopp" → "stop") but keeps legitimate doubles like "ll" in "grill".
func undouble(w string) string {
	n := len(w)
	if n >= 2 && w[n-1] == w[n-2] {
		switch w[n-1] {
		case 'l', 's', 'z':
			return w
		}
		return w[:n-1]
	}
	return w
}

// StemAll stems every token in toks, returning a new slice.
func StemAll(toks []string) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = Stem(t)
	}
	return out
}

// StemInPlace stems every token of toks in place and returns toks. Use it
// instead of StemAll when the caller owns toks (e.g. a fresh Tokenize
// result), saving the copy.
func StemInPlace(toks []string) []string {
	for i, t := range toks {
		toks[i] = Stem(t)
	}
	return toks
}
