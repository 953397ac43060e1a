package htmlx

import (
	"fmt"
	"strings"
	"testing"
)

// benchPage is a listing page shaped like the generated sites: chrome, forty
// cards of short spans, and a footer with non-ASCII text.
func benchPage() *Node {
	var b strings.Builder
	b.WriteString("<html><head><title>Guide</title></head><body>\n" +
		`<div class="topnav"><a href="/">Home</a> <a href="/about">About</a></div>` + "\n<ul>\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "  <li class=\"card\"><h2>Place %d</h2>\n    <span>%d Main St</span>  <span>(217) 555-01%02d</span></li>\n",
			i, 100+i, i)
	}
	b.WriteString("</ul>\n<div class=\"footer\">© Guide — all rights reserved</div></body></html>")
	return Parse(b.String())
}

var benchText string

// BenchmarkNodeText: one op is the whole page's Text.
func BenchmarkNodeText(b *testing.B) {
	doc := benchPage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchText = doc.Text()
	}
}
