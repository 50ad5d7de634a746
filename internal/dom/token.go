// Package dom implements a small, dependency-free HTML reader sufficient for
// focused crawling: it tokenizes real-world HTML and extracts hyperlinks
// together with their root-to-link tag paths (Sec. 2.2 of the paper), anchor
// text, and surrounding text. It is deliberately lenient — malformed markup
// degrades gracefully rather than failing, as a crawler must never die on a
// bad page.
//
// # Hot-path contract (one pass, byte views)
//
// The tokenizer's native form is the zero-copy RawToken: its Data and
// attribute Name/Value fields are views into the source buffer (or into the
// Tokenizer's internal scratch, for entity-decoded content) and its Attrs
// slice is backed by storage the Tokenizer reuses. Every view is valid only
// until the next call to NextRaw on the same Tokenizer; callers that
// retain token content across calls must copy it.
//
// Link extraction builds no tree. It reads the tokens once, keeping a stack
// of open elements under the tree-building rules (implied end tags, void
// elements, stray end tags ignored), so the stack at each token is the
// node's ancestor chain. Element names are matched against one static table
// (element.go) that holds each known name's rules — void, the URL attribute,
// its implied-end kind and the kinds it ends — so a start tag touches no map
// and a known name is a constant string; only a name the table lacks is
// interned. A link is appended at its start tag, in document order. When a text field is wanted, every text token is collapsed into one
// buffer per page, and an element's text is the stretch of it written while
// the element was open: an <a>'s anchor text is read when it closes, and
// its parent's text — the SurroundingText of every link directly inside it,
// cut to 256 bytes — when the parent closes. Each text costs its length,
// whatever the nesting, and only what a Link keeps becomes a string.
//
// A caller that keeps few of a page's links and reads few of their fields
// pays for those alone through ExtractLinksFiltered, of which
// ExtractLinksAppend is the unfiltered case. Its admit callback sees each
// link's href as a view of the page, before anything else of the link
// exists: an href becomes a string only when a Link keeps it, so a refused
// link costs no string at all. An admitted link gets the URL admit returned
// and only the fields the caller asked for: its tag path (a copy only when it
// differs from the previous surviving link's, and the element tokens behind
// it are not even built when no tag path is wanted), its anchor text, its
// parent's text (computed once per parent). Every other string an extraction
// hands out — an unfiltered link's href, a tag-path token, a text, an
// unknown element name, and an href admit passes back through the intern
// function it is given — is interned in the parser's bounded table when
// short; a table that fills starts over, so a long-lived parser stays warm
// on the pages it parses now.
//
// Parsers come from a small bounded free list that, unlike a sync.Pool,
// keeps them across GCs, so extraction allocates O(links), not O(bytes), in
// the steady state, and the same after a collection. A parked parser holds
// no slice of the last page. The DOM tree the extractor replaced survives
// only in the tests, as the oracle its output is held to.
package dom

import "bytes"

// TokenType discriminates the kinds of tokens produced by the Tokenizer.
type TokenType int

// Token kinds.
const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
)

// RawAttr is a single attribute as byte views. The Name preserves source
// case (compare with EqualFold-style helpers or lowercase on materialize);
// Value is entity-decoded only when the raw value contains '&'.
type RawAttr struct {
	Name  []byte
	Value []byte
}

// RawToken is one lexical unit as byte views into the tokenizer's source (or
// scratch, for decoded content). All views — Data, Attrs, and the Attrs
// backing array — are invalidated by the next NextRaw call; copy before
// retaining. For Start/End/SelfClosing tags Data is the name with source
// case preserved.
type RawToken struct {
	Type  TokenType
	Data  []byte
	Attrs []RawAttr
}

// rawTextNames lists the elements whose content is raw text up to the
// matching end tag (no nested markup is recognized inside them), in
// canonical lowercase form so a pending raw-text element can be tracked
// without allocating.
var rawTextNames = [][]byte{
	[]byte("script"), []byte("style"), []byte("textarea"), []byte("title"),
}

// rawTextTag returns the canonical lowercase name when the (possibly
// mixed-case) tag name is a raw-text element, else nil.
func rawTextTag(name []byte) []byte {
	for _, c := range rawTextNames {
		if foldEqual(name, c) {
			return c
		}
	}
	return nil
}

// Tokenizer scans an HTML byte stream into tokens. Reset aims it at a
// document; it may be reused across documents, and its internal buffers then
// stop allocating in the steady state.
type Tokenizer struct {
	src []byte
	pos int
	// pending raw-text element name in canonical lowercase (one of
	// rawTextNames): after emitting <script>, the tokenizer must treat
	// everything up to </script> as text.
	rawTag []byte
	// attrs is the reusable backing store for RawToken.Attrs.
	attrs []RawAttr
	// scratch backs entity-decoded token data (views handed out in
	// RawToken.Data remain valid until the next NextRaw call).
	scratch []byte
	// vscratch backs entity-decoded attribute values; separate from scratch
	// so a token's text decode cannot clobber its attribute decodes.
	vscratch []byte
}

// Reset aims the Tokenizer at a new document, keeping its internal buffers
// for reuse. The slice is not copied; the caller must not mutate it during
// tokenization.
func (z *Tokenizer) Reset(src []byte) {
	z.src = src
	z.pos = 0
	z.rawTag = nil
}

// NextRaw returns the next token as byte views and true, or a zero RawToken
// and false at EOF. The views are invalidated by the following NextRaw call.
func (z *Tokenizer) NextRaw() (RawToken, bool) {
	if z.pos >= len(z.src) {
		return RawToken{}, false
	}
	if z.rawTag != nil {
		return z.nextRawText(), true
	}
	if z.src[z.pos] == '<' {
		if tok, ok := z.nextTag(); ok {
			return tok, true
		}
		// A lone '<' that does not begin a tag is literal text.
		start := z.pos
		z.pos++
		z.consumeTextUntilLT()
		return RawToken{Type: TextToken, Data: z.src[start:z.pos]}, true
	}
	start := z.pos
	z.consumeTextUntilLT()
	return RawToken{Type: TextToken, Data: z.decodeText(z.src[start:z.pos])}, true
}

func (z *Tokenizer) consumeTextUntilLT() {
	if i := bytes.IndexByte(z.src[z.pos:], '<'); i >= 0 {
		z.pos += i
	} else {
		z.pos = len(z.src)
	}
}

// decodeText resolves character references in b, returning b itself when it
// contains none (the common case) and a view into the tokenizer's scratch
// otherwise.
func (z *Tokenizer) decodeText(b []byte) []byte {
	if bytes.IndexByte(b, '&') < 0 {
		return b
	}
	z.scratch = appendDecodedEntities(z.scratch[:0], b)
	return z.scratch
}

// nextRawText consumes text up to the closing tag of the pending raw-text
// element and emits it as a single TextToken; the subsequent NextRaw call
// then sees the end tag normally.
//
// The scan is a single in-place, case-insensitive pass (no lowercased copy
// of the remaining document), and the closing tag name must be followed by
// whitespace, '/', '>', or EOF — "</scripted>" does not terminate a
// <script> block.
func (z *Tokenizer) nextRawText() RawToken {
	src := z.src
	tag := z.rawTag
	i := z.pos
	end := len(src) // exclusive end of the raw text; len(src) when unterminated
	for i < len(src) {
		j := bytes.IndexByte(src[i:], '<')
		if j < 0 {
			break
		}
		i += j
		if hasCloserAt(src, i, tag) {
			end = i
			break
		}
		i++
	}
	data := src[z.pos:end]
	z.pos = end
	rcdata := bytes.Equal(tag, []byte("title")) || bytes.Equal(tag, []byte("textarea"))
	z.rawTag = nil
	if rcdata {
		data = z.decodeText(data)
	}
	return RawToken{Type: TextToken, Data: data}
}

// hasCloserAt reports whether src[i:] begins a closing tag for the raw-text
// element name tag (canonical lowercase): "</", the name case-insensitively,
// then a name boundary (whitespace, '/', '>', or EOF).
func hasCloserAt(src []byte, i int, tag []byte) bool {
	if i+2+len(tag) > len(src) {
		return false
	}
	if src[i] != '<' || src[i+1] != '/' {
		return false
	}
	if !foldEqual(src[i+2:i+2+len(tag)], tag) {
		return false
	}
	j := i + 2 + len(tag)
	if j >= len(src) {
		return true
	}
	b := src[j]
	return isSpace(b) || b == '/' || b == '>'
}

// nextTag attempts to parse a tag construct at z.pos (which points at '<').
// It reports false when the '<' does not open any recognizable construct.
func (z *Tokenizer) nextTag() (RawToken, bool) {
	src := z.src
	i := z.pos + 1
	if i >= len(src) {
		return RawToken{}, false
	}
	switch {
	case src[i] == '!':
		return z.nextBangTag(), true
	case src[i] == '?':
		// Processing instruction (e.g. <?xml ...?>): skip to '>'.
		j := indexByteFrom(src, '>', i)
		if j < 0 {
			z.pos = len(src)
		} else {
			z.pos = j + 1
		}
		return RawToken{Type: CommentToken}, true
	case src[i] == '/':
		return z.nextEndTag()
	case isAlpha(src[i]):
		return z.nextStartTag(), true
	}
	return RawToken{}, false
}

func (z *Tokenizer) nextBangTag() RawToken {
	src := z.src
	i := z.pos
	if hasPrefixAt(src, i, "<!--") {
		end := bytes.Index(src[i+4:], []byte("-->"))
		if end < 0 {
			tok := RawToken{Type: CommentToken, Data: src[i+4:]}
			z.pos = len(src)
			return tok
		}
		tok := RawToken{Type: CommentToken, Data: src[i+4 : i+4+end]}
		z.pos = i + 4 + end + 3
		return tok
	}
	// <!DOCTYPE ...> or other declarations: skip to '>'.
	j := indexByteFrom(src, '>', i)
	if j < 0 {
		z.pos = len(src)
		return RawToken{Type: DoctypeToken}
	}
	z.pos = j + 1
	return RawToken{Type: DoctypeToken, Data: trimSpaceBytes(src[i+2 : j])}
}

func (z *Tokenizer) nextEndTag() (RawToken, bool) {
	src := z.src
	i := z.pos + 2
	start := i
	for i < len(src) && isNameByte(src[i]) {
		i++
	}
	if i == start {
		return RawToken{}, false
	}
	name := src[start:i]
	j := indexByteFrom(src, '>', i)
	if j < 0 {
		z.pos = len(src)
	} else {
		z.pos = j + 1
	}
	return RawToken{Type: EndTagToken, Data: name}, true
}

func (z *Tokenizer) nextStartTag() RawToken {
	src := z.src
	i := z.pos + 1
	start := i
	for i < len(src) && isNameByte(src[i]) {
		i++
	}
	name := src[start:i]
	tok := RawToken{Type: StartTagToken, Data: name}
	z.attrs = z.attrs[:0]
	z.vscratch = z.vscratch[:0]
	// Attributes.
	for {
		for i < len(src) && isSpace(src[i]) {
			i++
		}
		if i >= len(src) {
			break
		}
		if src[i] == '>' {
			i++
			break
		}
		if src[i] == '/' {
			// Possible self-closing.
			if i+1 < len(src) && src[i+1] == '>' {
				tok.Type = SelfClosingTagToken
				i += 2
				break
			}
			i++
			continue
		}
		// Attribute name.
		aStart := i
		for i < len(src) && !isSpace(src[i]) && src[i] != '=' && src[i] != '>' && src[i] != '/' {
			i++
		}
		if i == aStart {
			i++ // stray byte; skip it
			continue
		}
		attr := RawAttr{Name: src[aStart:i]}
		for i < len(src) && isSpace(src[i]) {
			i++
		}
		if i < len(src) && src[i] == '=' {
			i++
			for i < len(src) && isSpace(src[i]) {
				i++
			}
			var vStart, vEnd int
			if i < len(src) && (src[i] == '"' || src[i] == '\'') {
				quote := src[i]
				i++
				vStart = i
				for i < len(src) && src[i] != quote {
					i++
				}
				vEnd = i
				if i < len(src) {
					i++ // closing quote
				}
			} else {
				vStart = i
				for i < len(src) && !isSpace(src[i]) && src[i] != '>' {
					i++
				}
				vEnd = i
			}
			attr.Value = z.decodeValue(src[vStart:vEnd])
		}
		z.attrs = append(z.attrs, attr)
	}
	z.pos = i
	tok.Attrs = z.attrs
	if tok.Type == StartTagToken {
		z.rawTag = rawTextTag(name)
	}
	return tok
}

// decodeValue resolves character references in an attribute value, returning
// the view itself when it contains none and a view into the value scratch
// otherwise. Values decode into their own scratch (vscratch) so several
// decoded attributes of one tag coexist.
func (z *Tokenizer) decodeValue(b []byte) []byte {
	if bytes.IndexByte(b, '&') < 0 {
		return b
	}
	off := len(z.vscratch)
	z.vscratch = appendDecodedEntities(z.vscratch, b)
	return z.vscratch[off:]
}

func isAlpha(b byte) bool { return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' }

func isNameByte(b byte) bool {
	return isAlpha(b) || b >= '0' && b <= '9' || b == '-' || b == '_' || b == ':'
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\f'
}

// foldEqual reports whether a equals b under ASCII case folding, where b is
// already lowercase (letters fold; non-letters must match exactly).
func foldEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		c := a[i]
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		if c != b[i] {
			return false
		}
	}
	return true
}

// toLowerAppend appends the ASCII-lowercased form of b to dst.
func toLowerAppend(dst, b []byte) []byte {
	for _, c := range b {
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		dst = append(dst, c)
	}
	return dst
}

// hasPrefixAt reports whether src[i:] begins with prefix under ASCII case
// folding. Only letters fold: a non-letter byte must match exactly, so e.g.
// '\r' (0x0D) never matches '-' (0x2D) and "<!\r\r" is not a comment opener.
func hasPrefixAt(src []byte, i int, prefix string) bool {
	if i+len(prefix) > len(src) {
		return false
	}
	for j := 0; j < len(prefix); j++ {
		b := src[i+j]
		p := prefix[j]
		if b == p {
			continue
		}
		if isAlpha(b) && isAlpha(p) && b|0x20 == p|0x20 {
			continue
		}
		return false
	}
	return true
}

func indexByteFrom(src []byte, c byte, from int) int {
	if i := bytes.IndexByte(src[from:], c); i >= 0 {
		return from + i
	}
	return -1
}

func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// entityTable covers the named character references a crawler actually meets;
// anything unrecognized is left verbatim (lenient by design).
var entityTable = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "copy": "©", "reg": "®", "mdash": "—",
	"ndash": "–", "hellip": "…", "laquo": "«", "raquo": "»",
	"eacute": "é", "egrave": "è", "agrave": "à", "ccedil": "ç",
}

// appendDecodedEntities appends b to dst with named and numeric character
// references resolved, and returns the extended buffer.
func appendDecodedEntities(dst, b []byte) []byte {
	for i := 0; i < len(b); {
		c := b[i]
		if c != '&' {
			dst = append(dst, c)
			i++
			continue
		}
		semi := bytes.IndexByte(b[i:], ';')
		if semi < 0 || semi > 12 {
			dst = append(dst, c)
			i++
			continue
		}
		name := b[i+1 : i+semi]
		if len(name) > 0 && name[0] == '#' {
			if r, ok := parseNumericRef(name[1:]); ok {
				dst = appendRune(dst, r)
				i += semi + 1
				continue
			}
		} else if rep, ok := entityTable[string(name)]; ok {
			dst = append(dst, rep...)
			i += semi + 1
			continue
		}
		dst = append(dst, c)
		i++
	}
	return dst
}

// appendRune appends the UTF-8 encoding of r to dst (what a
// strings.Builder.WriteRune would have produced).
func appendRune(dst []byte, r rune) []byte {
	return append(dst, string(r)...)
}

func parseNumericRef(digits []byte) (rune, bool) {
	if len(digits) == 0 {
		return 0, false
	}
	base := int64(10)
	if digits[0] == 'x' || digits[0] == 'X' {
		base = 16
		digits = digits[1:]
	}
	var n int64
	for i := 0; i < len(digits); i++ {
		d := digits[i]
		var v int64
		switch {
		case d >= '0' && d <= '9':
			v = int64(d - '0')
		case base == 16 && d >= 'a' && d <= 'f':
			v = int64(d-'a') + 10
		case base == 16 && d >= 'A' && d <= 'F':
			v = int64(d-'A') + 10
		default:
			return 0, false
		}
		n = n*base + v
		if n > 0x10FFFF {
			return 0, false
		}
	}
	if n >= 0xD800 && n <= 0xDFFF {
		// Surrogate code points are not scalar values; a reference to one is
		// left verbatim rather than decoded into invalid UTF-8.
		return 0, false
	}
	return rune(n), true
}
