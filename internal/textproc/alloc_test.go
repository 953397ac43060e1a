//go:build !race

package textproc

import "testing"

// Not built under the race detector, whose instrumentation may allocate.

// TestNormalizeAllocs: an already-normal ASCII value (or one whose normal
// form is a prefix of it) comes back without an allocation; any other costs
// exactly one.
func TestNormalizeAllocs(t *testing.T) {
	for _, c := range []struct {
		s      string
		allocs float64
	}{
		{"", 0},
		{"pizza", 0},
		{"san jose 95112", 0},
		{"san jose  ", 0},
		{"San Jose", 1},
		{"  san jose", 1},
		{"birk's steakhouse", 1},
		{"123 Main St, Suite 4B", 1},
		{"café rouge", 0},
		{"Café — Rouge", 1},
	} {
		if got := testing.AllocsPerRun(100, func() { Normalize(c.s) }); got != c.allocs {
			t.Errorf("Normalize(%q) allocates %.0f times, want %.0f", c.s, got, c.allocs)
		}
	}
}

// TestTokenizeNonASCIIAllocs: a "©" in lowercase ASCII text costs no
// allocation of its own — the text is not sent down a rune-by-rune path.
func TestTokenizeNonASCIIAllocs(t *testing.T) {
	const plain = "wood fired pizza and fresh pasta 2024 guide all rights reserved"
	const marked = "wood fired pizza and fresh pasta © 2024 guide all rights reserved"
	a := testing.AllocsPerRun(100, func() { Tokenize(plain) })
	b := testing.AllocsPerRun(100, func() { Tokenize(marked) })
	if a != b || a != 1 {
		t.Errorf("Tokenize allocates %.0f times on ASCII text and %.0f with a ©, want 1 and 1", a, b)
	}
}
