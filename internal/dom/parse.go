package dom

import (
	"maps"
	"unicode"
	"unicode/utf8"
)

// NodeType discriminates DOM node kinds.
type NodeType int

// Node kinds.
const (
	ElementNode NodeType = iota
	TextNode
)

// Node is one node of the parsed DOM tree.
type Node struct {
	Type     NodeType
	Data     string // element name (lowercased) or text content
	Attrs    []Attr
	Parent   *Node
	Children []*Node

	// text is a text node's content in a pooled extraction, whose tree
	// never escapes: a view of the page source (or of the parser's arena, for
	// entity-decoded text) standing in for Data, which stays "".
	text []byte
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
	b := appendNodeText(nil, n, &brk)
	return string(b)
}

// appendNodeText appends the whitespace-collapsed text of the subtree to dst
// in a single pass. brk carries the pending-word-break state: text nodes are
// word-separated from each other, and runs of Unicode whitespace collapse to
// one ' ' (the exact output of joining strings.Fields with single spaces).
func appendNodeText(dst []byte, n *Node, brk *bool) []byte {
	if n.Type == TextNode {
		if n.text != nil {
			dst = appendCollapsed(dst, n.text, brk)
		} else {
			dst = appendCollapsed(dst, n.Data, brk)
		}
		*brk = true // adjacent text nodes never fuse into one word
		return dst
	}
	for _, c := range n.Children {
		dst = appendNodeText(dst, c, brk)
	}
	return dst
}

// appendCollapsed appends s to dst with whitespace runs collapsed to single
// spaces and edges trimmed, continuing the word-break state in brk.
func appendCollapsed[S string | []byte](dst []byte, s S, brk *bool) []byte {
	for i := 0; i < len(s); {
		space, size := spaceAt(s, i)
		if space {
			*brk = true
			i += size
			continue
		}
		// One non-space rune (an invalid byte is copied verbatim, as
		// strings.Fields preserves it), then the ASCII rest of its word.
		end := i + size
		for end < len(s) && s[end] < utf8.RuneSelf && !isSpaceASCII(s[end]) {
			end++
		}
		if *brk && len(dst) > 0 {
			dst = append(dst, ' ')
		}
		*brk = false
		dst = append(dst, s[i:end]...)
		i = end
	}
	return dst
}

// isSpaceASCII is unicode.IsSpace for c < utf8.RuneSelf.
func isSpaceASCII(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

// spaceAt reports whether the rune at s[i] is Unicode whitespace, and its
// size in bytes. An invalid byte decodes to U+FFFD with size 1: not a space.
func spaceAt[S string | []byte](s S, i int) (space bool, size int) {
	if c := s[i]; c < utf8.RuneSelf {
		return isSpaceASCII(c), 1
	}
	var b [utf8.UTFMax]byte
	r, size := utf8.DecodeRune(b[:copy(b[:], s[i:])])
	return unicode.IsSpace(r), size
}

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

// impliedClosers is the inverted form of impliedEnd, precomputed once: for
// an opening tag name, the set of open element names it implicitly closes.
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

// commonStrings interns the tag names, attribute names, and attribute values
// a crawler sees on virtually every page, so materializing them never
// allocates.
var commonStrings = func() map[string]string {
	names := []string{
		"#document",
		"html", "head", "body", "title", "meta", "link", "script", "style",
		"div", "span", "p", "a", "ul", "ol", "li", "dl", "dt", "dd",
		"table", "thead", "tbody", "tr", "td", "th", "nav", "header",
		"footer", "section", "article", "aside", "main", "form", "input",
		"button", "select", "option", "label", "textarea", "img", "br",
		"hr", "em", "strong", "b", "i", "u", "small", "sup", "sub",
		"h1", "h2", "h3", "h4", "h5", "h6", "iframe", "area", "map",
		"figure", "figcaption", "blockquote", "pre", "code",
		"href", "src", "id", "class", "name", "type", "value", "rel",
		"alt", "content", "charset", "lang", "style", "width", "height",
	}
	m := make(map[string]string, len(names))
	for _, s := range names {
		m[s] = s
	}
	return m
}()

// nodeChunk and attrChunk size the parser's arena blocks. Blocks are stable
// in memory (nodes are linked by pointer), so a full block is retired and a
// fresh one started rather than growing in place.
const (
	nodeChunk     = 256
	attrChunkSize = 256
	// maxIntern bounds a parser's dynamic intern table; maxInternLen keeps
	// big text blobs out of it.
	maxIntern    = 8192
	maxInternLen = 64
)

// parser is the reusable state of one parse-and-extract run: the tokenizer,
// node and attribute arenas, a dynamic intern table, and the link-extraction
// walk state. A parser is single-use at a time; extractions draw parsers
// from an internal pool (parserFree) and recycles them (the arenas are
// reused, so trees built by a pooled run must not escape — only materialized
// strings may).
type parser struct {
	z Tokenizer
	// views marks a pooled parser: its tree dies with the run, so text nodes
	// hold views (Node.text) instead of materialized strings.
	views     bool
	textArena []byte // entity-decoded text the views point into

	chunks [][]Node // stable node arena blocks
	ci     int      // current block
	used   int      // used slots in current block

	attrChunk []Attr
	attrUsed  int

	interned map[string]string
	lower    []byte // lowercase scratch for names

	stack []*Node // open-element stack

	// Link-extraction walk state.
	want           Fields
	admit          func(href string) (string, bool) // nil outside a filtered walk
	pathStack      []string
	tokBuf         []byte
	textBuf        []byte
	links          []Link // links of the page being walked (see extract)
	lastParent     *Node
	lastParentText string
	lastPath       TagPath // the previous link's path, shared by equal ones
}

// newParser builds a parser. The pool's parsers hold text views; one built
// with views off materializes every text node, the tree the tests hold a
// pooled run's links to.
func newParser(views bool) *parser {
	return &parser{views: views, interned: maps.Clone(commonStrings)}
}

// parserFree is the free list extractions draw warm parsers from. It is a
// bounded channel, not a sync.Pool: a pool is emptied at every GC, and a cold
// parser re-grows its arenas and re-interns up to maxIntern strings (1–2 MB
// of garbage whose amount depends on when the collector happens to run).
var parserFree = make(chan *parser, parserFreeCap)

// parserFreeCap is how many idle parsers stay warm: one per extraction that
// can be running at once. Fleets and the daemon default to one crawl per
// core, so 8 covers them on ordinary machines; callers beyond it build a
// parser and drop it afterwards, the cost every caller paid after each GC
// under the pool. The maxParked bounds cap what each idle parser may hold: a
// free list, unlike a sync.Pool, never lets go, and fetch.HTTP admits 256 MB
// bodies, so a parser one outsized page grew past any of them is left to the
// GC instead of parked.
const (
	parserFreeCap = 8

	maxParkedChunks = 64      // node arena blocks: 16,384 nodes, so as many links
	maxParkedBytes  = 1 << 20 // byte scratch that grows with a page's text and names
	maxParkedAttrs  = 1 << 12 // attribute slots, which grow with one element's attributes
)

// getParser takes a warm parser off the free list, or builds one.
func getParser() *parser {
	select {
	case p := <-parserFree:
		return p
	default:
		return newParser(true)
	}
}

// putParser recycles p and parks it if it is small enough and there is room.
func putParser(p *parser) {
	p.recycle()
	if len(p.chunks) > maxParkedChunks ||
		cap(p.textArena)+cap(p.textBuf)+cap(p.tokBuf)+cap(p.lower)+cap(p.z.scratch)+cap(p.z.vscratch) > maxParkedBytes ||
		cap(p.attrChunk)+cap(p.z.attrs) > maxParkedAttrs {
		return
	}
	select {
	case parserFree <- p:
	default:
	}
}

// recycle resets the parser for reuse, keeping arenas and the intern table.
func (p *parser) recycle() {
	// Drop the text views so an idle parser does not pin a page body.
	for ci := 0; ci <= p.ci && ci < len(p.chunks); ci++ {
		c := p.chunks[ci]
		if ci == p.ci {
			c = c[:p.used]
		}
		for i := range c {
			c[i].text = nil
		}
	}
	p.textArena = p.textArena[:0]
	p.ci, p.used = 0, 0
	p.attrUsed = 0
	p.stack = p.stack[:0]
	p.pathStack = p.pathStack[:0]
	p.lastParent = nil
	p.lastParentText = ""
	p.lastPath = nil
	p.z.Reset(nil)
}

// newNode carves one node from the arena. Recycled slots keep their Children
// backing array (capacity reuse); all other fields are cleared.
func (p *parser) newNode() *Node {
	if p.ci >= len(p.chunks) {
		p.chunks = append(p.chunks, make([]Node, nodeChunk))
	}
	c := p.chunks[p.ci]
	if p.used == len(c) {
		p.ci++
		p.used = 0
		return p.newNode()
	}
	n := &c[p.used]
	p.used++
	n.Type = ElementNode
	n.Data = ""
	n.Attrs = nil
	n.Parent = nil
	n.Children = n.Children[:0]
	return n
}

// allocAttrs carves an exactly-sized attribute slice from the arena.
func (p *parser) allocAttrs(n int) []Attr {
	if p.attrUsed+n > len(p.attrChunk) {
		size := attrChunkSize
		if n > size {
			size = n
		}
		p.attrChunk = make([]Attr, size)
		p.attrUsed = 0
	}
	s := p.attrChunk[p.attrUsed : p.attrUsed+n : p.attrUsed+n]
	p.attrUsed += n
	return s
}

// intern materializes b as a string, reusing a previously seen copy when
// possible. The dynamic table is bounded in entry count and entry length;
// overflowing entries still materialize, they just aren't remembered.
func (p *parser) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := p.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) > maxInternLen {
		return s
	}
	if len(p.interned) >= maxIntern+len(commonStrings) {
		// A full table starts over, so a long-lived parser keeps learning
		// the site it parses now instead of the first ones it saw.
		clear(p.interned)
		maps.Copy(p.interned, commonStrings)
	}
	p.interned[s] = s
	return s
}

// textView returns text-token data in a form that outlives the token: the
// data itself when it is a view of the source, a copy in the parser's arena
// when the tokenizer decoded it into its scratch.
func (p *parser) textView(b []byte) []byte {
	if !p.z.decoded(b) {
		return b
	}
	off := len(p.textArena)
	p.textArena = append(p.textArena, b...)
	return p.textArena[off:]
}

// internLower interns the ASCII-lowercased form of b, lowercasing lazily:
// already-lowercase names (the overwhelmingly common case) intern as-is.
func (p *parser) internLower(b []byte) string {
	if allLowerASCII(b) {
		return p.intern(b)
	}
	p.lower = toLowerAppend(p.lower[:0], b)
	return p.intern(p.lower)
}

// foldEqualStr reports whether name equals the (lowercase) element name s
// under ASCII case folding.
func foldEqualStr(name []byte, s string) bool {
	if len(name) != len(s) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// parse builds a DOM tree from HTML bytes. It never fails: malformed input
// produces a best-effort tree. The returned root is a synthetic element named
// "#document" whose children are the top-level nodes. The tree lives in the
// parser's arenas until it is recycled.
func (p *parser) parse(src []byte) *Node {
	p.z.Reset(src)
	root := p.newNode()
	root.Data = "#document"
	p.stack = append(p.stack[:0], root)
	for {
		tok, ok := p.z.NextRaw()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if len(trimSpaceBytes(tok.Data)) == 0 {
				continue
			}
			parent := p.stack[len(p.stack)-1]
			child := p.newNode()
			child.Type = TextNode
			if p.views {
				child.text = p.textView(tok.Data)
			} else {
				child.Data = p.intern(tok.Data)
			}
			child.Parent = parent
			parent.Children = append(parent.Children, child)
		case StartTagToken, SelfClosingTagToken:
			name := p.internLower(tok.Data)
			// Apply implied-end recovery: <li> closes an open <li>, etc.
			if closers := impliedClosers[name]; closers != nil {
				for len(p.stack) > 1 {
					top := p.stack[len(p.stack)-1]
					if closers[top.Data] {
						p.stack = p.stack[:len(p.stack)-1]
						continue
					}
					break
				}
			}
			parent := p.stack[len(p.stack)-1]
			el := p.newNode()
			el.Data = name
			el.Parent = parent
			if len(tok.Attrs) > 0 {
				attrs := p.allocAttrs(len(tok.Attrs))
				for i, a := range tok.Attrs {
					attrs[i] = Attr{Name: p.internLower(a.Name), Value: p.intern(a.Value)}
				}
				el.Attrs = attrs
			}
			parent.Children = append(parent.Children, el)
			if tok.Type == StartTagToken && !voidElements[name] {
				p.stack = append(p.stack, el)
			}
		case EndTagToken:
			// Pop to the matching open element, if any; ignore strays.
			for i := len(p.stack) - 1; i >= 1; i-- {
				if foldEqualStr(tok.Data, p.stack[i].Data) {
					p.stack = p.stack[:i]
					break
				}
			}
		case CommentToken, DoctypeToken:
			// Dropped: neither contributes to tag paths or links.
		}
	}
	return root
}
