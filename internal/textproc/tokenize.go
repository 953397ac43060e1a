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
// ASCII input takes a two-pass fast path: the first pass counts tokens (so
// the result slice is allocated once, at exact capacity) and the second
// emits each token as a direct slice of s when no case-folding or apostrophe
// stripping is needed — pure-ASCII lowercase input costs exactly one
// allocation. Any non-ASCII byte falls back to the full Unicode path.
func Tokenize(s string) []string {
	return TokenizeInto(s, nil)
}

// TokenizeInto appends the tokens of s to dst and returns the extended
// slice. Hot loops that tokenize many strings (index analysis, classifier
// features) pass a reused buffer to avoid a slice allocation per call; a nil
// dst behaves like Tokenize.
func TokenizeInto(s string, dst []string) []string {
	// Pass 1: count tokens, bailing to the Unicode path on any non-ASCII
	// byte. A token starts at a letter/digit; an apostrophe extends a token
	// it is inside of but never starts one.
	n := 0
	inTok := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return tokenizeUnicode(s, dst)
		}
		if isASCIIAlnum(c) {
			if !inTok {
				n++
				inTok = true
			}
		} else if c != '\'' || !inTok {
			inTok = false
		}
	}
	if n == 0 {
		return dst
	}
	if free := cap(dst) - len(dst); free < n {
		grown := make([]string, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	// Pass 2: emit. A clean token (no uppercase, no apostrophe) is a
	// zero-copy slice of s; otherwise it is rewritten into a fresh string.
	for i := 0; i < len(s); {
		if !isASCIIAlnum(s[i]) {
			i++
			continue
		}
		j := i
		clean := true
		for j < len(s) {
			cj := s[j]
			if isASCIIAlnum(cj) {
				if cj >= 'A' && cj <= 'Z' {
					clean = false
				}
				j++
				continue
			}
			if cj == '\'' {
				clean = false
				j++
				continue
			}
			break
		}
		if clean {
			dst = append(dst, s[i:j])
		} else {
			buf := make([]byte, 0, j-i)
			for k := i; k < j; k++ {
				ck := s[k]
				if ck == '\'' {
					continue
				}
				if ck >= 'A' && ck <= 'Z' {
					ck += 'a' - 'A'
				}
				buf = append(buf, ck)
			}
			dst = append(dst, string(buf))
		}
		i = j
	}
	return dst
}

func isASCIIAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// tokenizeUnicode is the full rune-by-rune tokenizer, kept as the fallback
// for input containing any non-ASCII byte.
func tokenizeUnicode(s string, dst []string) []string {
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			dst = append(dst, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'' && b.Len() > 0:
			// skip intra-word apostrophe
		default:
			flush()
		}
	}
	flush()
	return dst
}

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
// the canonical form used when comparing attribute values across sources.
func Normalize(s string) string {
	return strings.Join(Tokenize(s), " ")
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
