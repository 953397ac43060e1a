package textproc

import (
	"reflect"
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

// FuzzTokenize: on any input, TokenizeInto — whose ASCII fast path answers
// every input without a byte >= 0x80 — returns what the Unicode tokenizer
// returns, appended after whatever dst already held, nil-ness included.
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
