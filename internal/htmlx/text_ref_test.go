package htmlx

import (
	"math/rand"
	"strings"
	"testing"
)

// refCollapseSpace is CollapseSpace before it became one pass, retained
// verbatim as its oracle.
func refCollapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// refText is Node.Text over refCollapseSpace.
func refText(n *Node) string {
	var b strings.Builder
	n.appendText(&b)
	return refCollapseSpace(b.String())
}

var textSeeds = []string{
	"",
	" ",
	"plain",
	"already collapsed text",
	"trailing ",
	"  leading and\t\ttabs\n\nand newlines  ",
	"\v\f\r vertical tab, form feed",
	"nbsp is\u00a0space\u3000too\u0085",
	"© 2024 Guide — all rights reserved ",
	"\xff\xfe broken \xc3 utf8 \xe5\xaf",
	"<ul><li> a </li><li>b\n</li></ul><script>x y</script><p> c</p>",
}

// FuzzNodeText: on any input, CollapseSpace is strings.Fields joined by
// single spaces, and every node of the input parsed as HTML has the text the
// retained Fields/Join reference gives.
func FuzzNodeText(f *testing.F) {
	for _, s := range textSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := CollapseSpace(s), refCollapseSpace(s); got != want {
			t.Fatalf("CollapseSpace(%q) = %q, reference %q", s, got, want)
		}
		Parse(s).Walk(func(n *Node) bool {
			if got, want := n.Text(), refText(n); got != want {
				t.Fatalf("Text of %q in %q = %q, reference %q", n.Data, s, got, want)
			}
			return true
		})
	})
}

// TestNodeTextMatchesReference: on seeded random text — every whitespace
// rune strings.Fields knows, runes it does not, and bytes that are not
// UTF-8 — CollapseSpace is Fields/Join, and so is Text on the generated
// page's every node.
func TestNodeTextMatchesReference(t *testing.T) {
	alphabet := []string{"a", "Z", "0", " ", "  ", "\t", "\n", "\v", "\f", "\r", "\u0085", "\u00a0",
		"\u1680", "\u2000", "\u200a", "\u200b", "\u2028", "\u202f", "\u3000", "\ufeff", "©", "—", "é",
		"\xff", "\xc3", "\xe2\x80"}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(16); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		s := b.String()
		if got, want := CollapseSpace(s), refCollapseSpace(s); got != want {
			t.Fatalf("CollapseSpace(%q) = %q, reference %q", s, got, want)
		}
	}
	benchPage().Walk(func(n *Node) bool {
		if got, want := n.Text(), refText(n); got != want {
			t.Fatalf("Text of %q = %q, reference %q", n.Data, got, want)
		}
		return true
	})
}
