package htmlx

import "strings"

// Parse builds a DOM tree from HTML source. It never fails: malformed input
// produces a best-effort tree, mirroring how browsers (and the paper's
// extraction targets) treat real-web HTML.
func Parse(src string) *Node {
	doc := &Node{Type: DocumentNode, Data: "#document"}
	z := NewTokenizer(src)
	// stack holds currently-open elements; stack[0] is the document.
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }

	for {
		tok := z.Next()
		switch tok.Type {
		case ErrorToken:
			return doc
		case TextToken:
			if strings.TrimSpace(tok.Data) == "" {
				continue
			}
			top().AppendChild(&Node{Type: TextNode, Data: tok.Data})
		case CommentToken:
			top().AppendChild(&Node{Type: CommentNode, Data: tok.Data})
		case DoctypeToken:
			// Dropped: the DOM we expose starts at <html>.
		case SelfClosingTagToken:
			top().AppendChild(&Node{Type: ElementNode, Data: tok.Data, Attr: tok.Attr})
		case StartTagToken:
			if voidElements[tok.Data] {
				top().AppendChild(&Node{Type: ElementNode, Data: tok.Data, Attr: tok.Attr})
				continue
			}
			closeImplied(&stack, tok.Data)
			el := &Node{Type: ElementNode, Data: tok.Data, Attr: tok.Attr}
			stack[len(stack)-1].AppendChild(el)
			stack = append(stack, el)
		case EndTagToken:
			// Pop to the matching open element, if any; otherwise ignore
			// the stray end tag.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Data == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}
}

// impliedClose maps a tag to the set of open tags that it implicitly closes
// when it appears as a sibling (the common subset of the HTML5 rules).
var impliedClose = map[string]map[string]bool{
	"li":     {"li": true},
	"dt":     {"dt": true, "dd": true},
	"dd":     {"dt": true, "dd": true},
	"tr":     {"tr": true, "td": true, "th": true},
	"td":     {"td": true, "th": true},
	"th":     {"td": true, "th": true},
	"p":      {"p": true},
	"option": {"option": true},
	"thead":  {"thead": true},
	"tbody":  {"thead": true, "tbody": true},
}

// closeImplied pops elements that the incoming tag implicitly closes.
func closeImplied(stack *[]*Node, incoming string) {
	closes, ok := impliedClose[incoming]
	if !ok {
		return
	}
	s := *stack
	for len(s) > 1 && closes[s[len(s)-1].Data] {
		s = s[:len(s)-1]
	}
	*stack = s
}
