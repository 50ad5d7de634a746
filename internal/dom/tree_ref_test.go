package dom

import (
	"slices"
	"strings"
)

// The reference tree: the DOM the link extractor used to build and walk,
// kept as the oracle its one-pass output is held to (FuzzExtractLinks) and
// as the structure the tree tests inspect. Nothing here is pooled, interned
// or arena-allocated: every node and string is its own allocation.

// NodeType discriminates DOM node kinds.
type NodeType int

// Node kinds.
const (
	ElementNode NodeType = iota
	TextNode
)

// Attr is a single name="value" HTML attribute. Names are lowercased.
type Attr struct {
	Name  string
	Value string
}

// Node is one node of the reference tree.
type Node struct {
	Type     NodeType
	Data     string // element name (lowercased) or text content
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// ID returns the element's id attribute, or "".
func (n *Node) ID() string {
	v, _ := n.Attr("id")
	return v
}

// Text returns the concatenated text content of the subtree rooted at n,
// with runs of whitespace collapsed to single spaces.
func (n *Node) Text() string {
	var brk bool
	return string(appendNodeText(nil, n, &brk))
}

// appendNodeText appends the whitespace-collapsed text of the subtree to dst.
// brk carries the pending-word-break state: text nodes are word-separated
// from each other, and runs of Unicode whitespace collapse to one ' ' (the
// exact output of joining strings.Fields with single spaces).
func appendNodeText(dst []byte, n *Node, brk *bool) []byte {
	if n.Type == TextNode {
		dst = appendCollapsed(dst, n.Data, brk)
		*brk = true // adjacent text nodes never fuse into one word
		return dst
	}
	for _, c := range n.Children {
		dst = appendNodeText(dst, c, brk)
	}
	return dst
}

// The reference tree's own rules, the maps the extractor matched element
// names against before its static table (TestElementTableMatchesOracle
// holds that table to them).

// voidElements never have children in HTML; a start tag is a complete element.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// impliedEnd lists elements that are implicitly closed when a sibling of the
// same (or listed) kind opens, the most common HTML recovery rule.
var impliedEnd = map[string]map[string]bool{
	"li":     {"li": true},
	"p":      {"p": true, "div": true, "ul": true, "ol": true, "table": true, "section": true, "article": true, "h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true},
	"td":     {"td": true, "th": true, "tr": true},
	"th":     {"td": true, "th": true, "tr": true},
	"tr":     {"tr": true},
	"option": {"option": true},
	"dt":     {"dt": true, "dd": true},
	"dd":     {"dt": true, "dd": true},
}

// impliedClosers is the inverted form of impliedEnd: for an opening tag
// name, the set of open element names it implicitly closes.
var impliedClosers = func() map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for closes, openers := range impliedEnd {
		for opener := range openers {
			m := out[opener]
			if m == nil {
				m = make(map[string]bool)
				out[opener] = m
			}
			m[closes] = true
		}
	}
	return out
}()

// linkAttr maps each linking element to the attribute holding its URL,
// following Section 2.2 (edges exist via tags like <a>, <area>, <iframe>).
var linkAttr = map[string]string{"a": "href", "area": "href", "iframe": "src"}

// parse builds the tree of src. It never fails: malformed input produces a
// best-effort tree. The root is a synthetic element named "#document" whose
// children are the top-level nodes.
func parse(src []byte) *Node {
	var z Tokenizer
	z.Reset(src)
	root := &Node{Data: "#document"}
	stack := []*Node{root}
	for {
		tok, ok := z.NextRaw()
		if !ok {
			return root
		}
		switch tok.Type {
		case TextToken:
			if len(trimSpaceBytes(tok.Data)) == 0 {
				continue
			}
			parent := stack[len(stack)-1]
			parent.Children = append(parent.Children, &Node{Type: TextNode, Data: string(tok.Data), Parent: parent})
		case StartTagToken, SelfClosingTagToken:
			name := string(toLowerAppend(nil, tok.Data))
			// Apply implied-end recovery: <li> closes an open <li>, etc.
			for closers := impliedClosers[name]; len(stack) > 1 && closers[stack[len(stack)-1].Data]; {
				stack = stack[:len(stack)-1]
			}
			parent := stack[len(stack)-1]
			el := &Node{Data: name, Parent: parent}
			for _, a := range tok.Attrs {
				el.Attrs = append(el.Attrs, Attr{Name: string(toLowerAppend(nil, a.Name)), Value: string(a.Value)})
			}
			parent.Children = append(parent.Children, el)
			if tok.Type == StartTagToken && !voidElements[name] {
				stack = append(stack, el)
			}
		case EndTagToken:
			// Pop to the matching open element, if any; ignore strays.
			for i := len(stack) - 1; i >= 1; i-- {
				if foldEqualStr(tok.Data, stack[i].Data) {
					stack = stack[:i]
					break
				}
			}
		}
	}
}

// walk visits every node of the tree in document order, calling fn; when fn
// returns false the subtree below the node is skipped.
func walk(n *Node, fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		walk(c, fn)
	}
}

// find returns the first element with the given tag name in document order,
// or nil.
func find(n *Node, name string) *Node {
	var found *Node
	walk(n, func(m *Node) bool {
		if found != nil {
			return false
		}
		if m.Type == ElementNode && m.Data == name {
			found = m
			return false
		}
		return true
	})
	return found
}

// sanitize replaces whitespace and the path separators in an id or class
// with '-'.
var sanitize = strings.NewReplacer(" ", "-", "\t", "-", "\n", "-", "/", "-", ".", "-", "#", "-").Replace

// pathToken is the element's tag-path token: its name, "#id" when the id is
// non-empty, and ".class" for each class.
func pathToken(n *Node) string {
	tok := n.Data
	if id := n.ID(); id != "" {
		tok += "#" + sanitize(id)
	}
	class, _ := n.Attr("class")
	for _, c := range strings.Fields(class) {
		tok += "." + sanitize(c)
	}
	return tok
}

// extractTree returns every link of the tree, with every field, in document
// order: each linking element with a non-blank URL attribute, its path from
// the root, its own text if it is an <a>, and its parent's text cut to 256
// bytes.
func extractTree(root *Node) []Link {
	var links []Link
	var path TagPath
	var visit func(n *Node)
	visit = func(n *Node) {
		if n.Type != ElementNode {
			return
		}
		path = append(path, pathToken(n))
		if attr, ok := linkAttr[n.Data]; ok {
			if href, _ := n.Attr(attr); strings.TrimSpace(href) != "" {
				l := Link{
					URL:             strings.TrimSpace(href),
					TagPath:         slices.Clone(path),
					SurroundingText: truncate(n.Parent.Text(), surroundingCap),
					Tag:             n.Data,
				}
				if n.Data == "a" {
					l.AnchorText = n.Text()
				}
				links = append(links, l)
			}
		}
		for _, c := range n.Children {
			visit(c)
		}
		path = path[:len(path)-1]
	}
	for _, c := range root.Children {
		visit(c)
	}
	return links
}
