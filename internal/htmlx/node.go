package htmlx

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// NodeType identifies the kind of a DOM node.
type NodeType int

// Node types.
const (
	ElementNode NodeType = iota
	TextNode
	CommentNode
	DocumentNode
)

// Node is a node in the parsed DOM tree.
type Node struct {
	Type NodeType
	// Data is the tag name for elements and the text for text/comment nodes.
	Data string
	Attr []Attribute

	Parent   *Node
	Children []*Node
}

// AttrVal returns the value of the named attribute and whether it exists.
func (n *Node) AttrVal(key string) (string, bool) {
	for _, a := range n.Attr {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// ID returns the element's id attribute, or "".
func (n *Node) ID() string {
	v, _ := n.AttrVal("id")
	return v
}

// Class returns the element's class attribute, or "".
func (n *Node) Class() string {
	v, _ := n.AttrVal("class")
	return v
}

// HasClass reports whether the element's class list contains name.
func (n *Node) HasClass(name string) bool {
	for _, c := range strings.Fields(n.Class()) {
		if c == name {
			return true
		}
	}
	return false
}

// AppendChild adds c as the last child of n and sets its parent pointer.
func (n *Node) AppendChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// Text returns the concatenated text content of the subtree rooted at n,
// with runs of whitespace collapsed to single spaces and trimmed.
func (n *Node) Text() string {
	var b strings.Builder
	n.appendText(&b)
	return CollapseSpace(b.String())
}

func (n *Node) appendText(b *strings.Builder) {
	switch n.Type {
	case TextNode:
		b.WriteString(n.Data)
		b.WriteByte(' ')
	case ElementNode:
		if n.Data == "script" || n.Data == "style" {
			return
		}
	}
	for _, c := range n.Children {
		c.appendText(b)
	}
}

// CollapseSpace returns the whitespace-separated fields of s joined by
// single spaces — strings.Join(strings.Fields(s), " ") — in one pass over s.
// While the output is a prefix of s nothing is written, so text that is
// already collapsed, or is so but for trailing whitespace (what Text's walk
// leaves), comes back as s or a prefix of it; otherwise the output is built
// in one allocation.
func CollapseSpace(s string) string {
	var b strings.Builder
	n := 0 // while b is empty: the output so far is s[:n]
	for i := 0; ; {
		start, end := nextField(s, i)
		if start == len(s) {
			break
		}
		i = end
		if b.Len() == 0 {
			if n == 0 && start == 0 || n > 0 && start == n+1 && s[n] == ' ' {
				n = end
				continue
			}
			b.Grow(n + 1 + len(s) - start) // all that is left of s fits
			b.WriteString(s[:n])
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s[start:end])
	}
	if b.Len() == 0 {
		return s[:n]
	}
	return b.String()
}

// asciiSpace is strings.Fields' ASCII whitespace; beyond ASCII it uses
// unicode.IsSpace.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField finds the first field of s at or after byte i, as strings.Fields
// splits s: s[start:end] is a maximal run of non-space runes, and start is
// len(s) when none is left.
func nextField(s string, i int) (start, end int) {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += w
	}
	for start = i; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += w
	}
	return start, i
}

// ChildElements returns only the element-typed children of n.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// Walk calls fn for every node in the subtree rooted at n, in document
// order. If fn returns false, the walk does not descend into that node's
// children (but continues with siblings).
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Find returns all element nodes in the subtree for which pred is true.
func (n *Node) Find(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.Type == ElementNode && pred(m) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// FindAll returns all descendant elements with the given tag name.
func (n *Node) FindAll(tag string) []*Node {
	return n.Find(func(m *Node) bool { return m.Data == tag })
}

// FindFirst returns the first descendant element with the given tag name in
// document order, or nil.
func (n *Node) FindFirst(tag string) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if found != nil {
			return false
		}
		if m.Type == ElementNode && m.Data == tag {
			found = m
			return false
		}
		return true
	})
	return found
}

// FindByClass returns all descendant elements whose class list contains name.
func (n *Node) FindByClass(name string) []*Node {
	return n.Find(func(m *Node) bool { return m.HasClass(name) })
}

// PathSignature returns the tag path from the document root to n, e.g.
// "html/body/div/ul/li". Structural extraction uses path signatures to
// detect record-generating templates.
func (n *Node) PathSignature() string {
	var parts []string
	for m := n; m != nil && m.Type == ElementNode; m = m.Parent {
		parts = append(parts, m.Data)
	}
	// Reverse.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// ClassPathSignature is like PathSignature but includes class names, which
// distinguishes template slots that share tag structure:
// "html/body/div.listing/ul/li.item".
func (n *Node) ClassPathSignature() string {
	var parts []string
	for m := n; m != nil && m.Type == ElementNode; m = m.Parent {
		parts = append(parts, ClassPathStep(m.Data, m.Class()))
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// ClassPathStep is one element's step of a ClassPathSignature, the last
// one of its own: the tag, then each name of the class attribute after a
// '.' ("li.item.featured").
func ClassPathStep(tag, class string) string {
	if class == "" {
		return tag
	}
	return tag + "." + strings.Join(strings.Fields(class), ".")
}

// Links returns the href values of all <a> descendants, in document order.
func (n *Node) Links() []string {
	var out []string
	for _, a := range n.FindAll("a") {
		if href, ok := a.AttrVal("href"); ok && href != "" {
			out = append(out, href)
		}
	}
	return out
}

// ScanLinks returns the non-empty href values of the <a> tags in src, in
// document order: what Parse(src).Links() returns, found by the tokenizer
// alone. Parse makes an element of every start tag, in token order, and a
// preorder walk visits elements in the order they were made, so the two
// agree on any input.
func ScanLinks(src string) []string {
	var out []string
	z := NewTokenizer(src)
	for {
		tok := z.Next()
		switch tok.Type {
		case ErrorToken:
			return out
		case StartTagToken, SelfClosingTagToken:
			if tok.Data != "a" {
				continue
			}
			if href, ok := tok.AttrVal("href"); ok && href != "" {
				out = append(out, href)
			}
		}
	}
}
