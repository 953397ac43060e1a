package textproc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

var normalizeSeeds = []string{
	"",
	"   ",
	"Birk's Steakhouse",
	"''double '' apostrophes''",
	"rock'n'roll o'brien's",
	"123 Main St, Suite 4B",
	"San Jose",
	"san  jose ",
	"Café Rouge",
	"the running café — 寿司 寿司",
	"\xff\xfe broken \xc3 utf8 \xe5\xaf",
	"ab'é",
	"K kelvin",
}

// FuzzTokenize: on any input, TokenizeInto — bytewise over ASCII, rune by
// rune only at non-ASCII bytes — returns what the retained rune-by-rune
// tokenizer returns, appended after whatever dst already held, nil-ness
// included.
func FuzzTokenize(f *testing.F) {
	for _, s := range normalizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := TokenizeInto(s, nil), tokenizeUnicode(s, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("TokenizeInto(%q) = %q, unicode path %q", s, got, want)
		}
		prefix := []string{"kept"}
		got := TokenizeInto(s, prefix[:1:1])
		want := tokenizeUnicode(s, []string{"kept"})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TokenizeInto(%q, [kept]) = %q, unicode path %q", s, got, want)
		}
	})
}

// FuzzNormalize: on any input the one-pass Normalize returns what joining
// the tokens did, and the tokens the retained rune-by-rune tokenizer finds.
func FuzzNormalize(f *testing.F) {
	for _, s := range normalizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := Normalize(s)
		if want := refNormalize(s); got != want {
			t.Fatalf("Normalize(%q) = %q, reference %q", s, got, want)
		}
		if want := strings.Join(tokenizeUnicode(s, nil), " "); got != want {
			t.Fatalf("Normalize(%q) = %q, rune-by-rune tokens joined %q", s, got, want)
		}
	})
}

// mixedAlphabet is what randomText draws from: ASCII letters of both cases,
// digits, apostrophes, separators, non-ASCII letters whose lowercase is
// narrower or wider than they are, non-letters, and bytes that are not UTF-8.
var mixedAlphabet = []string{"a", "b", "z", "A", "Q", "Z", "0", "7", "'", " ", " ", "  ", ",", "-", "\t",
	"é", "É", "ß", "İ", "Ⱥ", "ǅ", "寿", "٣", "©", "—", "\u00a0", "\u2003", "\ufffd", "\xff", "\xc3", "\xe5\xaf"}

// randomText is a seeded random string over mixedAlphabet.
func randomText(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(24); n > 0; n-- {
		b.WriteString(mixedAlphabet[rng.Intn(len(mixedAlphabet))])
	}
	return b.String()
}

// TestTokenizeMatchesReference: on seeded random mixed text, TokenizeInto,
// Normalize and EqualsNormalized agree with the retained rune-by-rune
// tokenizer and the retained Normalize.
func TestTokenizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 20000; i++ {
		s := randomText(rng)
		want := tokenizeUnicode(s, nil)
		if got := TokenizeInto(s, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("TokenizeInto(%q) = %q, reference %q", s, got, want)
		}
		norm := Normalize(s)
		if ref := refNormalize(s); norm != ref || norm != strings.Join(want, " ") {
			t.Fatalf("Normalize(%q) = %q, reference %q", s, norm, ref)
		}
		if !EqualsNormalized(s, norm) {
			t.Fatalf("EqualsNormalized(%q, %q) is false", s, norm)
		}
	}
}

// FuzzEqualsNormalized: EqualsNormalized(s, n) is Normalize(s) == n, for n
// the normal form of s, of a second input, and of the raw second input.
func FuzzEqualsNormalized(f *testing.F) {
	for i, s := range normalizeSeeds {
		f.Add(s, normalizeSeeds[(i+1)%len(normalizeSeeds)])
		f.Add(s, Normalize(s)+" ")
	}
	f.Fuzz(func(t *testing.T, s, other string) {
		norm := Normalize(s)
		if !EqualsNormalized(s, norm) {
			t.Fatalf("EqualsNormalized(%q, Normalize = %q) is false", s, norm)
		}
		for _, n := range []string{other, Normalize(other)} {
			if got, want := EqualsNormalized(s, n), norm == n; got != want {
				t.Fatalf("EqualsNormalized(%q, %q) = %v; Normalize gives %q", s, n, got, norm)
			}
		}
	})
}

// TestEqualsNormalizedAllocs: on ASCII input the compare allocates nothing,
// whether it matches or not.
func TestEqualsNormalizedAllocs(t *testing.T) {
	for _, c := range []struct{ s, norm string }{
		{"San  Jose", "san jose"},
		{"Birk's Steakhouse!", "birks steakhouse"},
		{"San Jose", "santa clara"},
		{"San Jose", "san jose extra"},
	} {
		want := Normalize(c.s) == c.norm
		if got := EqualsNormalized(c.s, c.norm); got != want {
			t.Errorf("EqualsNormalized(%q, %q) = %v, want %v", c.s, c.norm, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { EqualsNormalized(c.s, c.norm) }); allocs != 0 {
			t.Errorf("EqualsNormalized(%q, %q) allocates %.0f times", c.s, c.norm, allocs)
		}
	}
}
