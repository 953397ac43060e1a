package htmlx

import (
	"strings"
	"testing"
	"testing/quick"
)

func collectTokens(src string) []Token {
	z := NewTokenizer(src)
	var toks []Token
	for {
		t := z.Next()
		if t.Type == ErrorToken {
			return toks
		}
		toks = append(toks, t)
	}
}

func TestTokenizerSimple(t *testing.T) {
	toks := collectTokens(`<div class="x">hi</div>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3: %v", len(toks), toks)
	}
	if toks[0].Type != StartTagToken || toks[0].Data != "div" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if v, ok := toks[0].AttrVal("class"); !ok || v != "x" {
		t.Errorf("class attr = %q, %v", v, ok)
	}
	if toks[1].Type != TextToken || toks[1].Data != "hi" {
		t.Errorf("tok1 = %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "div" {
		t.Errorf("tok2 = %+v", toks[2])
	}
}

func TestTokenizerAttributes(t *testing.T) {
	cases := []struct {
		src, key, want string
	}{
		{`<a href="x.html">`, "href", "x.html"},
		{`<a href='x.html'>`, "href", "x.html"},
		{`<a href=x.html>`, "href", "x.html"},
		{`<a HREF="X">`, "href", "X"},
		{`<input disabled>`, "disabled", ""},
		{`<a title="a &amp; b">`, "title", "a & b"},
	}
	for _, c := range cases {
		toks := collectTokens(c.src)
		if len(toks) == 0 {
			t.Fatalf("%q: no tokens", c.src)
		}
		v, ok := toks[0].AttrVal(c.key)
		if !ok || v != c.want {
			t.Errorf("%q: attr %q = %q,%v want %q", c.src, c.key, v, ok, c.want)
		}
	}
}

func TestTokenizerVoidAndSelfClosing(t *testing.T) {
	toks := collectTokens(`<br><img src="a.png"/><hr />`)
	for i, tok := range toks {
		if tok.Type != StartTagToken {
			t.Errorf("tok %d: type %v, want StartTag (void elems stay start tags)", i, tok.Type)
		}
	}
	toks = collectTokens(`<span/>x`)
	if toks[0].Type != SelfClosingTagToken {
		t.Errorf("self-closing non-void: %+v", toks[0])
	}
}

func TestTokenizerComment(t *testing.T) {
	toks := collectTokens(`a<!-- secret -->b`)
	if len(toks) != 3 || toks[1].Type != CommentToken || toks[1].Data != " secret " {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestTokenizerScriptRawText(t *testing.T) {
	src := `<script>if (a < b) { x("<div>"); }</script><p>after</p>`
	toks := collectTokens(src)
	if toks[0].Data != "script" {
		t.Fatalf("tok0 = %+v", toks[0])
	}
	if toks[1].Type != TextToken || !strings.Contains(toks[1].Data, `a < b`) {
		t.Fatalf("script body not raw: %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "script" {
		t.Fatalf("tok2 = %+v", toks[2])
	}
}

func TestTokenizerMalformed(t *testing.T) {
	// A lone '<' degrades to text, never an infinite loop or panic.
	toks := collectTokens(`a < b and <2 more`)
	var text strings.Builder
	for _, tok := range toks {
		if tok.Type == TextToken {
			text.WriteString(tok.Data)
		}
	}
	if !strings.Contains(text.String(), "a ") || !strings.Contains(text.String(), "more") {
		t.Errorf("text = %q", text.String())
	}
}

func TestUnescapeEntities(t *testing.T) {
	cases := map[string]string{
		"a &amp; b":     "a & b",
		"&lt;tag&gt;":   "<tag>",
		"&#65;&#x42;":   "AB",
		"caf&eacute;":   "café",
		"no entities":   "no entities",
		"&notareal;":    "&notareal;",
		"dangling &amp": "dangling &amp",
		"&nbsp;":        " ",
		"&#x1F600;":     "\U0001F600",
	}
	for in, want := range cases {
		if got := UnescapeEntities(in); got != want {
			t.Errorf("UnescapeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		return UnescapeEntities(EscapeText(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseNesting(t *testing.T) {
	doc := Parse(`<html><body><div id="a"><p>one</p><p>two</p></div></body></html>`)
	div := doc.FindFirst("div")
	if div == nil || div.ID() != "a" {
		t.Fatal("div#a not found")
	}
	ps := div.FindAll("p")
	if len(ps) != 2 {
		t.Fatalf("got %d <p>, want 2", len(ps))
	}
	if ps[0].Text() != "one" || ps[1].Text() != "two" {
		t.Errorf("texts = %q, %q", ps[0].Text(), ps[1].Text())
	}
	if ps[0].Parent != div {
		t.Error("parent pointer wrong")
	}
}

func TestParseImpliedClose(t *testing.T) {
	doc := Parse(`<ul><li>a<li>b<li>c</ul>`)
	lis := doc.FindAll("li")
	if len(lis) != 3 {
		t.Fatalf("got %d <li>, want 3", len(lis))
	}
	for i, want := range []string{"a", "b", "c"} {
		if lis[i].Text() != want {
			t.Errorf("li[%d] = %q, want %q", i, lis[i].Text(), want)
		}
		if lis[i].Parent != lis[0].Parent {
			t.Errorf("li[%d] has another parent than li[0] (nesting bug)", i)
		}
	}
	doc = Parse(`<table><tr><td>1<td>2<tr><td>3</table>`)
	if n := len(doc.FindAll("tr")); n != 2 {
		t.Errorf("tr count = %d, want 2", n)
	}
	if n := len(doc.FindAll("td")); n != 3 {
		t.Errorf("td count = %d, want 3", n)
	}
}

func TestParseStrayEndTag(t *testing.T) {
	doc := Parse(`<div>a</span>b</div>`)
	divs := doc.FindAll("div")
	if len(divs) != 1 || divs[0].Text() != "a b" {
		t.Fatalf("divs = %d, text = %q", len(divs), divs[0].Text())
	}
}

func TestNodeTextSkipsScript(t *testing.T) {
	doc := Parse(`<div>visible<script>var hidden = 1;</script></div>`)
	if got := doc.Text(); got != "visible" {
		t.Errorf("Text() = %q", got)
	}
}

func TestFindByClass(t *testing.T) {
	doc := Parse(`<div class="item featured">a</div><div class="item">b</div><div class="other">c</div>`)
	items := doc.FindByClass("item")
	if len(items) != 2 {
		t.Fatalf("got %d items", len(items))
	}
	if !items[0].HasClass("featured") || items[1].HasClass("featured") {
		t.Error("HasClass wrong")
	}
}

func TestPathSignature(t *testing.T) {
	doc := Parse(`<html><body><div class="listing"><ul><li class="item">x</li></ul></div></body></html>`)
	li := doc.FindFirst("li")
	if got := li.PathSignature(); got != "html/body/div/ul/li" {
		t.Errorf("PathSignature = %q", got)
	}
	if got := li.ClassPathSignature(); got != "html/body/div.listing/ul/li.item" {
		t.Errorf("ClassPathSignature = %q", got)
	}
}

func TestLinks(t *testing.T) {
	doc := Parse(`<p><a href="/a">A</a><a>no href</a><a href="/b">B</a></p>`)
	links := doc.Links()
	if len(links) != 2 || links[0] != "/a" || links[1] != "/b" {
		t.Errorf("links = %v", links)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	srcs := []string{
		`<html><head><title>T</title></head><body><div class="x"><p>hi <b>bold</b></p></div></body></html>`,
		`<ul><li>a</li><li>b &amp; c</li></ul>`,
		`<table><tr><td colspan="2">x</td></tr></table>`,
		`<a href="/p?q=1&amp;r=2">link</a>`,
	}
	for _, src := range srcs {
		d1 := Parse(src)
		out := Render(d1)
		d2 := Parse(out)
		if Render(d2) != out {
			t.Errorf("render not stable for %q:\n1: %s\n2: %s", src, out, Render(d2))
		}
		if d1.Text() != d2.Text() {
			t.Errorf("text changed: %q vs %q", d1.Text(), d2.Text())
		}
	}
}

func TestElemBuilder(t *testing.T) {
	n := Elem("div", []string{"class", "card"},
		Elem("span", nil, TextN("hello")),
	)
	if got := Render(n); got != `<div class="card"><span>hello</span></div>` {
		t.Errorf("Render = %q", got)
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		doc := Parse(s)
		_ = doc.Text()
		_ = Render(doc)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseDeeplyNested(t *testing.T) {
	var b strings.Builder
	const depth = 500
	for i := 0; i < depth; i++ {
		b.WriteString("<div>")
	}
	b.WriteString("x")
	for i := 0; i < depth; i++ {
		b.WriteString("</div>")
	}
	doc := Parse(b.String())
	if n := len(doc.FindAll("div")); n != depth {
		t.Errorf("got %d divs, want %d", n, depth)
	}
}
