package textproc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// The tokenizer fast path must produce exactly what the Unicode reference
// path produces on ASCII input — same tokens, same order — across the edge
// cases the fast path handles specially (case folding, apostrophes at every
// position, digit runs, punctuation separators).
func TestTokenizeFastPathEquivalence(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"plain lowercase words",
		"MIXED Case WORDS",
		"birk's steakhouse",
		"'leading apostrophe",
		"trailing' apostrophe'",
		"''double '' apostrophes''",
		"rock'n'roll o'brien's",
		"a'",
		"'",
		"123 main st, suite 4B",
		"don't-stop hyphen.dot/slash",
		"tabs\tand\nnewlines  collapse",
		"x",
		"ALLCAPS",
		"ends with apostrophe in'",
	}
	for _, s := range cases {
		got := Tokenize(s)
		want := tokenizeUnicode(s, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) fast path = %v, unicode reference = %v", s, got, want)
		}
	}
}

// Pure-ASCII lowercase input must cost exactly one allocation (the result
// slice): every token is a zero-copy view of the input. This pins the fast
// path so a regression shows up as a test failure, not a silent slowdown.
func TestTokenizeAllocs(t *testing.T) {
	s := "margherita pizza with basil and buffalo mozzarella baked in a wood oven"
	allocs := testing.AllocsPerRun(100, func() {
		Tokenize(s)
	})
	if allocs > 1 {
		t.Errorf("Tokenize(pure-ASCII lowercase) = %.1f allocs/run, want <= 1", allocs)
	}

	// With a reused buffer of sufficient capacity, tokenization allocates
	// nothing at all.
	buf := make([]string, 0, 64)
	allocs = testing.AllocsPerRun(100, func() {
		buf = TokenizeInto(s, buf[:0])
	})
	if allocs > 0 {
		t.Errorf("TokenizeInto(reused buffer) = %.1f allocs/run, want 0", allocs)
	}
}

func TestCharNGramsMultibyte(t *testing.T) {
	cases := []struct {
		in   string
		n    int
		want []string
	}{
		// Every gram must be valid UTF-8 and n runes long; the old
		// byte-sliced version split the 'é' in half.
		{"café", 3, []string{"^ca", "caf", "afé", "fé$"}},
		{"日本", 2, []string{"^日", "日本", "本$"}},
		{"øl", 4, []string{"^øl$"}},
	}
	for _, c := range cases {
		got := CharNGrams(c.in, c.n)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("CharNGrams(%q, %d) = %q, want %q", c.in, c.n, got, c.want)
		}
		for _, g := range got {
			if !utf8.ValidString(g) {
				t.Errorf("CharNGrams(%q, %d): gram %q is not valid UTF-8", c.in, c.n, g)
			}
		}
	}
}

// benchText is representative page prose: ASCII with mixed case and light
// punctuation, the common case the fast path is built for.
var benchText = strings.Repeat(
	"Visit Luigi's Trattoria at 123 Main St for wood-fired Margherita pizza, "+
		"fresh pasta and a curated wine list. Open Mon-Sat 11:30am-10pm. ", 8)

var benchTokens []string

func BenchmarkTokenize(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(benchText)))
	for i := 0; i < b.N; i++ {
		benchTokens = Tokenize(benchText)
	}
}

func BenchmarkTokenizeInto(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(benchText)))
	buf := make([]string, 0, 256)
	for i := 0; i < b.N; i++ {
		buf = TokenizeInto(benchText, buf[:0])
	}
	benchTokens = buf
}

var benchTerms []string

func BenchmarkTopTerms(b *testing.B) {
	c := NewCorpus()
	docs := make([][]string, 0, 50)
	for i := 0; i < 50; i++ {
		doc := Tokenize(fmt.Sprintf(
			"restaurant %d serves pasta pizza seafood steak dessert wine "+
				"beer cocktails brunch dinner takeout delivery patio %d", i, i*7))
		c.Add(doc)
		docs = append(docs, doc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTerms = TopTerms(c.Vectorize(docs[i%len(docs)]), 10)
	}
}

// normalizeBench are attribute values as extraction and the record store
// normalize them: already normal, mixed case with punctuation, and non-ASCII.
var normalizeBench = []string{
	"pizza",
	"san jose",
	"Birk's Steakhouse",
	"123 Main St, Suite 4B",
	"(408) 555-0123",
	"Café Rouge — Cupertino",
}

var benchNorm string

// BenchmarkNormalize: one op normalizes every value of normalizeBench.
func BenchmarkNormalize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range normalizeBench {
			benchNorm = Normalize(s)
		}
	}
}

// mixedText is whole-page text as the generated sites render it: ASCII prose
// with a footer carrying "©" and "—", so that the text is not pure ASCII.
var mixedText = strings.ToLower(benchText) + "© 2024 guide — all rights reserved"

// BenchmarkTokenizeMixed is BenchmarkTokenize on text with a few non-ASCII
// runes in it.
func BenchmarkTokenizeMixed(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(mixedText)))
	for i := 0; i < b.N; i++ {
		benchTokens = Tokenize(mixedText)
	}
}
