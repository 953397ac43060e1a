package htmlx

import "strings"

// The serializer and tree builders the parser tests use; nothing else in the
// program renders a tree.

// Render serializes the subtree rooted at n back to HTML. Parsing the output
// of Render yields an equivalent tree, which the round-trip tests rely on.
func Render(n *Node) string {
	var b strings.Builder
	render(&b, n)
	return b.String()
}

func render(b *strings.Builder, n *Node) {
	switch n.Type {
	case DocumentNode:
		for _, c := range n.Children {
			render(b, c)
		}
	case TextNode:
		b.WriteString(EscapeText(n.Data))
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Data)
		for _, a := range n.Attr {
			b.WriteByte(' ')
			b.WriteString(a.Key)
			if a.Val != "" {
				b.WriteString(`="`)
				b.WriteString(EscapeAttr(a.Val))
				b.WriteByte('"')
			}
		}
		b.WriteByte('>')
		if voidElements[n.Data] {
			return
		}
		for _, c := range n.Children {
			render(b, c)
		}
		b.WriteString("</")
		b.WriteString(n.Data)
		b.WriteByte('>')
	}
}

// Elem constructs an element node with the given tag, attributes, and
// children. Attributes are given as alternating key, value strings.
func Elem(tag string, attrs []string, children ...*Node) *Node {
	n := &Node{Type: ElementNode, Data: tag}
	for i := 0; i+1 < len(attrs); i += 2 {
		n.Attr = append(n.Attr, Attribute{Key: attrs[i], Val: attrs[i+1]})
	}
	for _, c := range children {
		n.AppendChild(c)
	}
	return n
}

// TextN constructs a text node.
func TextN(s string) *Node {
	return &Node{Type: TextNode, Data: s}
}
