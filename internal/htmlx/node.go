package htmlx

import (
	"strings"
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
	return collapseSpace(b.String())
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

func collapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
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
		p := m.Data
		if cl := m.Class(); cl != "" {
			p += "." + strings.Join(strings.Fields(cl), ".")
		}
		parts = append(parts, p)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
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
