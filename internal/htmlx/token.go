// Package htmlx implements a small, dependency-free HTML tokenizer, parser,
// DOM, renderer, and query layer.
//
// The package exists because the web-of-concepts pipeline must extract
// structured records from raw HTML pages (§4 of the paper), and the Go
// standard library does not ship an HTML parser. The parser is not a full
// WHATWG implementation; it handles the subset of HTML produced by real
// template-driven sites (nested elements, attributes, entities, comments,
// void and implicitly-closed elements, script/style raw text), which is the
// class of pages the paper's extraction techniques target.
package htmlx

import (
	"fmt"
	"strings"
)

// TokenType identifies the kind of a lexical token produced by the Tokenizer.
type TokenType int

// Token types.
const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
	ErrorToken // end of input
)

// String returns a human-readable name for the token type.
func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "Text"
	case StartTagToken:
		return "StartTag"
	case EndTagToken:
		return "EndTag"
	case SelfClosingTagToken:
		return "SelfClosingTag"
	case CommentToken:
		return "Comment"
	case DoctypeToken:
		return "Doctype"
	case ErrorToken:
		return "EOF"
	default:
		return fmt.Sprintf("TokenType(%d)", int(t))
	}
}

// Attribute is a single key="value" pair on a tag.
type Attribute struct {
	Key string
	Val string
}

// Token is one lexical unit of an HTML document.
type Token struct {
	Type TokenType
	// Data is the tag name for tag tokens, the text for text tokens, and
	// the comment body for comment tokens.
	Data string
	Attr []Attribute
}

// AttrVal returns the value of the named attribute and whether it was present.
func (t *Token) AttrVal(key string) (string, bool) {
	for _, a := range t.Attr {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// voidElements are elements that never have closing tags.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// rawTextElements have bodies that are not parsed as markup.
var rawTextElements = map[string]bool{
	"script": true, "style": true, "textarea": true, "title": true,
}

// Tokenizer splits HTML source into Tokens. It is a forgiving, single-pass
// scanner: malformed markup degrades to text rather than failing.
type Tokenizer struct {
	src string
	pos int
	// rawTag, when non-empty, means we are inside a raw-text element and
	// must scan until its matching end tag.
	rawTag string
}

// NewTokenizer returns a Tokenizer reading from src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token. After the input is exhausted it returns a
// token with Type == ErrorToken forever.
func (z *Tokenizer) Next() Token {
	if z.pos >= len(z.src) {
		return Token{Type: ErrorToken}
	}
	if z.rawTag != "" {
		return z.nextRawText()
	}
	if z.src[z.pos] == '<' {
		if tok, ok := z.scanMarkup(); ok {
			if tok.Type == StartTagToken && rawTextElements[tok.Data] {
				z.rawTag = tok.Data
			}
			return tok
		}
	}
	return z.scanText()
}

// nextRawText scans the body of a script/style/textarea/title element up to
// its closing tag, returning the body as a single text token. The closing
// tag is consumed on the following call.
func (z *Tokenizer) nextRawText() Token {
	closer := "</" + z.rawTag
	rest := z.src[z.pos:]
	idx := indexFold(rest, closer)
	if idx < 0 {
		z.pos = len(z.src)
		z.rawTag = ""
		return Token{Type: TextToken, Data: rest}
	}
	if idx == 0 {
		// At the closing tag itself.
		z.rawTag = ""
		tok, ok := z.scanMarkup()
		if ok {
			return tok
		}
		return z.scanText()
	}
	z.pos += idx
	z.rawTag = ""
	// Re-arm so the next call hits the closer via scanMarkup.
	return Token{Type: TextToken, Data: rest[:idx]}
}

// indexFold is strings.Index with ASCII case folding on the needle.
func indexFold(s, needle string) int {
	n := len(needle)
	if n == 0 {
		return 0
	}
	for i := 0; i+n <= len(s); i++ {
		if strings.EqualFold(s[i:i+n], needle) {
			return i
		}
	}
	return -1
}

// scanText consumes text up to the next '<' (or EOF).
func (z *Tokenizer) scanText() Token {
	start := z.pos
	// Skip a leading '<' that failed to parse as markup.
	if z.src[z.pos] == '<' {
		z.pos++
	}
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Type: TextToken, Data: UnescapeEntities(z.src[start:z.pos])}
}

// scanMarkup attempts to parse a tag, comment, or doctype at z.pos (which
// must point at '<'). On failure it restores position and reports false.
func (z *Tokenizer) scanMarkup() (Token, bool) {
	start := z.pos
	if z.pos+1 >= len(z.src) {
		return Token{}, false
	}
	switch {
	case strings.HasPrefix(z.src[z.pos:], "<!--"):
		return z.scanComment(), true
	case strings.HasPrefix(z.src[z.pos:], "<!"):
		return z.scanDoctype(), true
	case z.src[z.pos+1] == '/':
		return z.scanEndTag(start)
	case isTagNameStart(z.src[z.pos+1]):
		return z.scanStartTag(start)
	default:
		return Token{}, false
	}
}

func isTagNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isTagNameChar(c byte) bool {
	return isTagNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == ':'
}

func (z *Tokenizer) scanComment() Token {
	z.pos += 4 // len("<!--")
	end := strings.Index(z.src[z.pos:], "-->")
	var body string
	if end < 0 {
		body = z.src[z.pos:]
		z.pos = len(z.src)
	} else {
		body = z.src[z.pos : z.pos+end]
		z.pos += end + 3
	}
	return Token{Type: CommentToken, Data: body}
}

func (z *Tokenizer) scanDoctype() Token {
	z.pos += 2 // len("<!")
	end := strings.IndexByte(z.src[z.pos:], '>')
	var body string
	if end < 0 {
		body = z.src[z.pos:]
		z.pos = len(z.src)
	} else {
		body = z.src[z.pos : z.pos+end]
		z.pos += end + 1
	}
	return Token{Type: DoctypeToken, Data: strings.TrimSpace(body)}
}

func (z *Tokenizer) scanEndTag(start int) (Token, bool) {
	z.pos += 2 // len("</")
	nameStart := z.pos
	for z.pos < len(z.src) && isTagNameChar(z.src[z.pos]) {
		z.pos++
	}
	if z.pos == nameStart {
		z.pos = start
		return Token{}, false
	}
	name := strings.ToLower(z.src[nameStart:z.pos])
	// Skip to '>'.
	for z.pos < len(z.src) && z.src[z.pos] != '>' {
		z.pos++
	}
	if z.pos < len(z.src) {
		z.pos++
	}
	return Token{Type: EndTagToken, Data: name}, true
}

func (z *Tokenizer) scanStartTag(start int) (Token, bool) {
	z.pos++ // '<'
	nameStart := z.pos
	for z.pos < len(z.src) && isTagNameChar(z.src[z.pos]) {
		z.pos++
	}
	name := strings.ToLower(z.src[nameStart:z.pos])
	tok := Token{Type: StartTagToken, Data: name}
	for {
		z.skipSpace()
		if z.pos >= len(z.src) {
			return tok, true
		}
		switch z.src[z.pos] {
		case '>':
			z.pos++
			return tok, true
		case '/':
			z.pos++
			z.skipSpace()
			if z.pos < len(z.src) && z.src[z.pos] == '>' {
				z.pos++
				if !voidElements[name] {
					tok.Type = SelfClosingTagToken
				}
				return tok, true
			}
		default:
			key, val, ok := z.scanAttribute()
			if !ok {
				// Unparseable junk inside the tag; skip one byte.
				z.pos++
				continue
			}
			tok.Attr = append(tok.Attr, Attribute{Key: key, Val: val})
		}
	}
}

func (z *Tokenizer) skipSpace() {
	for z.pos < len(z.src) {
		switch z.src[z.pos] {
		case ' ', '\t', '\n', '\r', '\f':
			z.pos++
		default:
			return
		}
	}
}

// scanAttribute parses key, key=value, key="value", or key='value'.
func (z *Tokenizer) scanAttribute() (key, val string, ok bool) {
	start := z.pos
	for z.pos < len(z.src) {
		c := z.src[z.pos]
		if c == '=' || c == '>' || c == '/' || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			break
		}
		z.pos++
	}
	if z.pos == start {
		return "", "", false
	}
	key = strings.ToLower(z.src[start:z.pos])
	z.skipSpace()
	if z.pos >= len(z.src) || z.src[z.pos] != '=' {
		return key, "", true
	}
	z.pos++ // '='
	z.skipSpace()
	if z.pos >= len(z.src) {
		return key, "", true
	}
	switch q := z.src[z.pos]; q {
	case '"', '\'':
		z.pos++
		vStart := z.pos
		for z.pos < len(z.src) && z.src[z.pos] != q {
			z.pos++
		}
		val = z.src[vStart:z.pos]
		if z.pos < len(z.src) {
			z.pos++ // closing quote
		}
	default:
		vStart := z.pos
		for z.pos < len(z.src) {
			c := z.src[z.pos]
			if c == '>' || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				break
			}
			z.pos++
		}
		val = z.src[vStart:z.pos]
	}
	return key, UnescapeEntities(val), true
}

// entityTable maps the named entities that occur in practice on the pages we
// generate and parse. Numeric entities are handled separately.
var entityTable = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": '\x20', "mdash": '—', "ndash": '–', "hellip": '…',
	"copy": '©', "reg": '®', "trade": '™', "bull": '•', "middot": '·',
	"laquo": '«', "raquo": '»', "deg": '°', "frac12": '½', "eacute": 'é',
	"amp;": '&',
}

// UnescapeEntities replaces HTML entities (named from a common table, plus
// decimal and hex numeric forms) with their characters. Unknown entities are
// left untouched.
func UnescapeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(c)
			i++
			continue
		}
		name := s[i+1 : i+semi]
		if r, ok := entityTable[name]; ok {
			b.WriteRune(r)
			i += semi + 1
			continue
		}
		if len(name) > 1 && name[0] == '#' {
			if r, ok := parseNumericEntity(name[1:]); ok {
				b.WriteRune(r)
				i += semi + 1
				continue
			}
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

func parseNumericEntity(s string) (rune, bool) {
	base := 10
	if len(s) > 1 && (s[0] == 'x' || s[0] == 'X') {
		base = 16
		s = s[1:]
	}
	var n int
	for i := 0; i < len(s); i++ {
		var d int
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int(c-'A') + 10
		default:
			return 0, false
		}
		n = n*base + d
		if n > 0x10FFFF {
			return 0, false
		}
	}
	if len(s) == 0 {
		return 0, false
	}
	return rune(n), true
}

// A Replacer is safe for concurrent use and builds its lookup table on first
// Replace, so the two escapers are built once for the process.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// EscapeText escapes text for inclusion in an HTML text node.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes text for inclusion in a double-quoted attribute value.
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }
