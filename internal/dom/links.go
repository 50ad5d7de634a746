package dom

import (
	"strings"
	"unicode/utf8"
)

// TagPath is the sequence of element tokens from the document root to a node,
// the edge label λ of Section 2.2. Each token is the element name optionally
// decorated with "#id" and ".class" suffixes, e.g.
//
//	["html", "body", "div#main", "ul.datasets", "li", "a"]
type TagPath []string

// String renders the path in the paper's space-separated form, e.g.
// "html body div#main ul.datasets li a".
func (p TagPath) String() string { return strings.Join(p, " ") }

// appendPathToken appends the tag-path token of the element name with
// attributes attrs to dst: name, then "#id" when the id is non-empty, then
// ".class" for each class in document order. Of repeated attributes the
// first counts.
func appendPathToken(dst []byte, name string, attrs []RawAttr) []byte {
	dst = append(dst, name...)
	if id := attrValue(attrs, "id"); len(id) > 0 {
		dst = append(dst, '#')
		dst = appendSanitized(dst, id)
	}
	class := attrValue(attrs, "class")
	for i := 0; ; {
		start, end := nextField(class, i)
		if start < 0 {
			break
		}
		dst = append(dst, '.')
		dst = appendSanitized(dst, class[start:end])
		i = end
	}
	return dst
}

// nextField locates the next whitespace-delimited field of s at or after i,
// with strings.Fields semantics. start is -1 when no field remains.
func nextField[S string | []byte](s S, i int) (start, end int) {
	for i < len(s) {
		space, size := spaceAt(s, i)
		if !space {
			break
		}
		i += size
	}
	if i >= len(s) {
		return -1, -1
	}
	start = i
	for i < len(s) {
		space, size := spaceAt(s, i)
		if space {
			break
		}
		i += size
	}
	return start, i
}

// appendSanitized appends s with whitespace and the path separators replaced
// by '-' so that tokens remain unambiguous. The replaced characters are all
// ASCII, so the byte-level scan never splits a multi-byte rune.
func appendSanitized[S string | []byte](dst []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '/', '.', '#':
			dst = append(dst, '-')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// Link is one hyperlink extracted from a page: the edge of the website graph
// together with its label and the textual context used by the FOCUSED
// baseline's URL_CONT feature set. An extraction that was not asked for a
// field (see Fields) leaves it empty.
type Link struct {
	// URL is the raw attribute value (href or src), not yet resolved
	// against the page URL — or, in a filtered extraction, what the admit
	// callback returned for it.
	URL string
	// TagPath is the root-to-link tag path labeling this edge. It is
	// read-only: consecutive links of one extraction with equal paths share
	// one slice (in a filtered extraction, consecutive surviving links).
	TagPath TagPath
	// AnchorText is the link's own text content (empty for area/iframe).
	AnchorText string
	// SurroundingText is the text of the link's parent element, giving a
	// window of context around the anchor: its first 256 bytes, cut at a
	// rune boundary.
	SurroundingText string
	// Tag is the linking element name: "a", "area", or "iframe".
	Tag string
}

// Fields names the Link fields beyond URL and Tag that an extraction builds.
type Fields uint8

// The optional Link fields.
const (
	TagPathField Fields = 1 << iota
	AnchorTextField
	SurroundingTextField

	AllFields = TagPathField | AnchorTextField | SurroundingTextField
)

// surroundingCap is the byte cap on SurroundingText.
const surroundingCap = 256

// ExtractLinksAppend appends every hyperlink of the HTML page, with its tag
// path and context, to dst (which may be an exhausted scratch slice), in
// document order. It is ExtractLinksFiltered with every field and no filter.
func ExtractLinksAppend(dst []Link, src []byte) []Link {
	return ExtractLinksFiltered(dst, src, AllFields, nil)
}

// ExtractLinksFiltered is ExtractLinksAppend for a caller that keeps some of
// a page's links and reads some of their fields. At each link element, admit
// is called with the trimmed href before anything else about the link is
// built. The href is a view of the page (or of the tokenizer's scratch),
// valid only during the call: a link admit refuses costs no string. One it
// admits is appended with the URL admit returned and, of the optional
// fields, only those in want. intern materializes bytes through the parser's
// table, so that admit can hand back an href that is its own normal form as
// the string the parser keeps for it. A nil admit keeps every link, its
// interned href as URL. The page is read in one pass on a free-listed
// parser, and only the appended Links (plain strings throughout) survive the
// call, so steady-state allocation is O(links), not O(bytes). Links collect
// in the parser's own buffer and reach dst in one append, so a nil dst costs
// one exactly-sized allocation, not a doubling series.
func ExtractLinksFiltered(dst []Link, src []byte, want Fields, admit func(href []byte, intern func([]byte) string) (string, bool)) []Link {
	p := getParser()
	p.want, p.admit = want, admit
	p.run(src)
	dst = append(dst, p.links...)
	putParser(p)
	return dst
}

// truncate caps s at n bytes without splitting a multi-byte UTF-8 rune: the
// cut backs off to the nearest rune boundary at or before n.
func truncate[S string | []byte](s S, n int) S {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n]
}
