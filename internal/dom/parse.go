package dom

import (
	"bytes"
	"math"
	"slices"
	"unicode"
	"unicode/utf8"

	"sbcrawl/internal/freelist"
)

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

// maxIntern bounds a parser's dynamic intern table; maxInternLen keeps big
// text blobs out of it.
const (
	maxIntern    = 8192
	maxInternLen = 64
)

// parser is the reusable state of one extraction: the tokenizer, an intern
// table, and the open-element stack with what its elements' links wait for.
// A parser serves one extraction at a time; extractions draw parsers from a
// free list (parserFree), and only the Links' strings outlive the call.
type parser struct {
	z        Tokenizer
	interned map[string]string
	internFn func([]byte) string // p.intern, bound once: admit's second argument
	lower    []byte              // lowercase scratch for names elements lacks
	tokBuf   []byte              // path-token scratch

	want  Fields
	admit func(href []byte, intern func([]byte) string) (string, bool) // nil outside a filtered extraction

	stack    []openElement
	path     []string // the path tokens of stack[1:], when tag paths are wanted
	lastPath TagPath  // the previous link's path, shared by an equal next one
	text     []byte   // the page's collapsed text so far, when a text field is wanted
	brk      bool     // a word break is pending at the end of text
	pending  []int    // links waiting for their parent's text, innermost parent's last
	links    []Link   // the page's links so far, in document order
}

// openElement is one entry of the open-element stack. Its text is p.text
// from its text offset to where it closes (less the word break before its
// first word), so reading it costs its length, never a walk of the subtree.
type openElement struct {
	name   string
	kind   uint8 // its element.kind: the implied-end kind an opening tag may end
	text   int   // len(p.text) when the element opened
	anchor int   // the index of the <a> link waiting for this element's text, or -1
	mark   int   // len(p.pending) when the element opened: the entries past it wait for this one
}

// newParser builds a parser with an empty intern table.
func newParser() *parser {
	p := &parser{interned: make(map[string]string)}
	p.internFn = p.intern
	return p
}

// parserFree is the free list extractions draw warm parsers from: a cold
// parser re-grows its scratch and re-interns up to maxIntern strings (1–2 MB
// of garbage).
var parserFree = freelist.New[*parser]()

// The maxParked bounds cap what each idle parser may hold: fetch.HTTP admits
// 256 MB bodies, so a parser one outsized page grew past any of them is left
// to the GC instead of parked.
const (
	maxParkedBytes = 1 << 20 // byte scratch that grows with a page's text and names
	maxParkedAttrs = 1 << 12 // attribute slots, which grow with one element's attributes
	maxParkedSlots = 1 << 14 // stack, path, pending and link slots, which grow with a page's depth and links
)

// getParser takes a warm parser off the free list, or builds one.
func getParser() *parser {
	if p, ok := parserFree.Get(); ok {
		return p
	}
	return newParser()
}

// putParser recycles p and parks it if it is small enough and there is room.
func putParser(p *parser) {
	p.recycle()
	if cap(p.text)+cap(p.tokBuf)+cap(p.lower)+cap(p.z.scratch)+cap(p.z.vscratch) > maxParkedBytes ||
		cap(p.z.attrs) > maxParkedAttrs ||
		cap(p.stack)+cap(p.path)+cap(p.pending)+cap(p.links) > maxParkedSlots {
		return
	}
	parserFree.Put(p)
}

// recycle resets the parser for reuse, keeping its scratch and intern table.
// An idle parser holds no slice of the last page and nothing of its caller.
func (p *parser) recycle() {
	p.z.Reset(nil)
	clear(p.z.attrs[:cap(p.z.attrs)]) // views of the page's tags
	p.admit = nil
	clear(p.links)
	p.links = p.links[:0]
	p.lastPath = nil
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
	if len(p.interned) >= maxIntern {
		// A full table starts over, so a long-lived parser keeps learning
		// the site it parses now instead of the first ones it saw.
		clear(p.interned)
	}
	p.interned[s] = s
	return s
}

// foldEqualStr reports whether name equals the (lowercase) name s under
// ASCII case folding.
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

// run appends the links of the HTML page src to p.links in one pass over its
// tokens. It never fails: malformed input yields best-effort links. The
// open-element stack applies the tree-building rules — implied end tags,
// void elements, stray end tags ignored, everything open closed at EOF — so
// at every token it is the ancestor chain a DOM tree would give it, with the
// document itself at the bottom.
func (p *parser) run(src []byte) {
	p.z.Reset(src)
	p.stack = append(p.stack[:0], openElement{anchor: -1})
	p.text, p.brk = p.text[:0], false
	texts := p.want&(AnchorTextField|SurroundingTextField) != 0
	for {
		tok, ok := p.z.NextRaw()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if texts && len(trimSpaceBytes(tok.Data)) > 0 {
				p.text = appendCollapsed(p.text, tok.Data, &p.brk)
				p.brk = true // adjacent text nodes never fuse into one word
			}
		case StartTagToken, SelfClosingTagToken:
			p.start(tok)
		case EndTagToken:
			// Close to the matching open element, if any; ignore strays.
			for i := len(p.stack) - 1; i >= 1; i-- {
				if foldEqualStr(tok.Data, p.stack[i].name) {
					p.closeTo(i)
					break
				}
			}
		case CommentToken, DoctypeToken:
			// Dropped: neither contributes to tag paths or links.
		}
	}
	p.closeTo(0)
}

// start handles a start tag: the elements it implicitly ends close, a
// linking element's link is appended, and an element that can have content
// opens. A known name is its table entry's constant; only another one is
// lowered and interned.
func (p *parser) start(tok RawToken) {
	el := lookupElement(tok.Data)
	var name string
	if el != nil {
		name = el.name
	} else {
		el = &otherElement
		p.lower = toLowerAppend(p.lower[:0], tok.Data)
		name = p.intern(p.lower)
	}
	// Implied-end recovery: <li> closes an open <li>, etc.
	if el.closes != 0 {
		n := len(p.stack)
		for n > 1 && el.closes&p.stack[n-1].kind != 0 {
			n--
		}
		p.closeTo(n)
	}
	paths := p.want&TagPathField != 0
	if paths {
		p.path = append(p.path, p.pathToken(name, tok.Attrs))
	}
	anchor := -1
	if el.attr != "" {
		anchor = p.link(name, el.attr, tok.Attrs)
	}
	if tok.Type == StartTagToken && !el.void {
		p.stack = append(p.stack, openElement{name: name, kind: el.kind, text: len(p.text), anchor: anchor, mark: len(p.pending)})
	} else if paths {
		p.path = p.path[:len(p.path)-1]
	}
}

// closeTo closes the open elements above the first n, innermost first,
// filling in the texts their links wait for: an <a>'s anchor text, and the
// surrounding text of the links whose parent it is, computed once for all of
// them.
func (p *parser) closeTo(n int) {
	for len(p.stack) > n {
		e := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		if len(p.path) > 0 { // the document has no token
			p.path = p.path[:len(p.path)-1]
		}
		if e.anchor >= 0 {
			p.links[e.anchor].AnchorText = p.textSince(e.text, math.MaxInt)
		}
		if len(p.pending) > e.mark {
			s := p.textSince(e.text, surroundingCap)
			for _, i := range p.pending[e.mark:] {
				p.links[i].SurroundingText = s
			}
			p.pending = p.pending[:e.mark]
		}
	}
}

// textSince is the text written since offset off, without the word break
// before its first word, cut to its first limit bytes at a rune boundary and
// interned: only what a Link keeps becomes a string.
func (p *parser) textSince(off, limit int) string {
	t := p.text[off:]
	if len(t) > 0 && t[0] == ' ' { // a word never starts with a space
		t = t[1:]
	}
	return p.intern(truncate(t, limit))
}

// pathToken is the element's interned tag-path token; an element without an
// id or class has its name as its token.
func (p *parser) pathToken(name string, attrs []RawAttr) string {
	if len(attrs) == 0 {
		return name
	}
	p.tokBuf = appendPathToken(p.tokBuf[:0], name, attrs)
	if len(p.tokBuf) == len(name) {
		return name
	}
	return p.intern(p.tokBuf)
}

// link appends the link of a linking element, its URL in attribute attr, if
// it has one and admit keeps it. It returns the link's index when the link
// waits for its anchor text, else -1.
func (p *parser) link(name, attr string, attrs []RawAttr) int {
	href := bytes.TrimSpace(attrValue(attrs, attr))
	if len(href) == 0 {
		return -1
	}
	var url string
	if p.admit == nil {
		url = p.intern(href)
	} else {
		var ok bool
		if url, ok = p.admit(href, p.internFn); !ok {
			return -1
		}
	}
	l := Link{URL: url, Tag: name}
	if p.want&TagPathField != 0 {
		// Sibling links (a list of downloads, a menu) mostly share their
		// path; tokens are interned, so the comparison is mostly
		// pointer-equal strings.
		if !slices.Equal(p.lastPath, p.path) {
			p.lastPath = slices.Clone(p.path)
		}
		l.TagPath = p.lastPath
	}
	i := len(p.links)
	p.links = append(p.links, l)
	if p.want&SurroundingTextField != 0 {
		p.pending = append(p.pending, i)
	}
	if p.want&AnchorTextField != 0 && name == "a" {
		return i
	}
	return -1
}

// attrValue is the value of the first attribute whose name is name (given
// in lowercase) under ASCII case folding, or nil.
func attrValue(attrs []RawAttr, name string) []byte {
	for _, a := range attrs {
		if foldEqualStr(a.Name, name) {
			return a.Value
		}
	}
	return nil
}
