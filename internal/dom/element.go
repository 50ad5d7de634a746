package dom

// The implied-end kinds: the elements an opening tag can end implicitly,
// one bit each (element.kind, element.closes).
const (
	kindLi uint8 = 1 << iota
	kindP
	kindTd
	kindTh
	kindTr
	kindOption
	kindDt
	kindDd
)

// element is what the parser knows of an element name: whether it is void
// (a start tag is the whole element), the attribute that holds its URL when
// it links, its bit among the implied-end kinds, and the kinds its opening
// tag implicitly ends — the most common HTML recovery rule: <li> ends an
// open <li>, <table> an open <p>.
type element struct {
	name   string
	void   bool
	attr   string // "href" or "src" for a linking element (Sec. 2.2: <a>, <area>, <iframe>), else ""
	kind   uint8
	closes uint8
}

// elements is the static table of the names lookupElement knows: every
// element a rule applies to, and the ones a crawler sees on virtually every
// page, so that no known name is interned.
var elements = [...]element{
	{name: "a", attr: "href"},
	{name: "area", void: true, attr: "href"},
	{name: "article", closes: kindP},
	{name: "aside"},
	{name: "b"},
	{name: "base", void: true},
	{name: "blockquote"},
	{name: "body"},
	{name: "br", void: true},
	{name: "button"},
	{name: "code"},
	{name: "col", void: true},
	{name: "dd", kind: kindDd, closes: kindDt | kindDd},
	{name: "div", closes: kindP},
	{name: "dl"},
	{name: "dt", kind: kindDt, closes: kindDt | kindDd},
	{name: "em"},
	{name: "embed", void: true},
	{name: "figcaption"},
	{name: "figure"},
	{name: "footer"},
	{name: "form"},
	{name: "h1", closes: kindP},
	{name: "h2", closes: kindP},
	{name: "h3", closes: kindP},
	{name: "h4", closes: kindP},
	{name: "h5", closes: kindP},
	{name: "h6", closes: kindP},
	{name: "head"},
	{name: "header"},
	{name: "hr", void: true},
	{name: "html"},
	{name: "i"},
	{name: "iframe", attr: "src"},
	{name: "img", void: true},
	{name: "input", void: true},
	{name: "label"},
	{name: "li", kind: kindLi, closes: kindLi},
	{name: "link", void: true},
	{name: "main"},
	{name: "map"},
	{name: "meta", void: true},
	{name: "nav"},
	{name: "ol", closes: kindP},
	{name: "option", kind: kindOption, closes: kindOption},
	{name: "p", kind: kindP, closes: kindP},
	{name: "param", void: true},
	{name: "pre"},
	{name: "script"},
	{name: "section", closes: kindP},
	{name: "select"},
	{name: "small"},
	{name: "source", void: true},
	{name: "span"},
	{name: "strong"},
	{name: "style"},
	{name: "sub"},
	{name: "sup"},
	{name: "table", closes: kindP},
	{name: "tbody"},
	{name: "td", kind: kindTd, closes: kindTd | kindTh},
	{name: "textarea"},
	{name: "th", kind: kindTh, closes: kindTd | kindTh},
	{name: "thead"},
	{name: "title"},
	{name: "tr", kind: kindTr, closes: kindTd | kindTh | kindTr},
	{name: "track", void: true},
	{name: "u"},
	{name: "ul", closes: kindP},
	{name: "wbr", void: true},
}

// maxElementName is the length of the longest name in elements.
const maxElementName = len("blockquote")

// lookupElement is the entry of elements for the tag name name under ASCII
// case folding, or nil. The name is lowered into a stack buffer and matched
// by one string switch, so a lookup touches no map and allocates nothing.
// Each case returns its name's position in elements, which
// TestElementTableMatchesOracle checks for every entry.
func lookupElement(name []byte) *element {
	if len(name) > maxElementName {
		return nil
	}
	var buf [maxElementName]byte
	low := buf[:len(name)]
	for i, c := range name {
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		low[i] = c
	}
	switch string(low) {
	case "a":
		return &elements[0]
	case "area":
		return &elements[1]
	case "article":
		return &elements[2]
	case "aside":
		return &elements[3]
	case "b":
		return &elements[4]
	case "base":
		return &elements[5]
	case "blockquote":
		return &elements[6]
	case "body":
		return &elements[7]
	case "br":
		return &elements[8]
	case "button":
		return &elements[9]
	case "code":
		return &elements[10]
	case "col":
		return &elements[11]
	case "dd":
		return &elements[12]
	case "div":
		return &elements[13]
	case "dl":
		return &elements[14]
	case "dt":
		return &elements[15]
	case "em":
		return &elements[16]
	case "embed":
		return &elements[17]
	case "figcaption":
		return &elements[18]
	case "figure":
		return &elements[19]
	case "footer":
		return &elements[20]
	case "form":
		return &elements[21]
	case "h1":
		return &elements[22]
	case "h2":
		return &elements[23]
	case "h3":
		return &elements[24]
	case "h4":
		return &elements[25]
	case "h5":
		return &elements[26]
	case "h6":
		return &elements[27]
	case "head":
		return &elements[28]
	case "header":
		return &elements[29]
	case "hr":
		return &elements[30]
	case "html":
		return &elements[31]
	case "i":
		return &elements[32]
	case "iframe":
		return &elements[33]
	case "img":
		return &elements[34]
	case "input":
		return &elements[35]
	case "label":
		return &elements[36]
	case "li":
		return &elements[37]
	case "link":
		return &elements[38]
	case "main":
		return &elements[39]
	case "map":
		return &elements[40]
	case "meta":
		return &elements[41]
	case "nav":
		return &elements[42]
	case "ol":
		return &elements[43]
	case "option":
		return &elements[44]
	case "p":
		return &elements[45]
	case "param":
		return &elements[46]
	case "pre":
		return &elements[47]
	case "script":
		return &elements[48]
	case "section":
		return &elements[49]
	case "select":
		return &elements[50]
	case "small":
		return &elements[51]
	case "source":
		return &elements[52]
	case "span":
		return &elements[53]
	case "strong":
		return &elements[54]
	case "style":
		return &elements[55]
	case "sub":
		return &elements[56]
	case "sup":
		return &elements[57]
	case "table":
		return &elements[58]
	case "tbody":
		return &elements[59]
	case "td":
		return &elements[60]
	case "textarea":
		return &elements[61]
	case "th":
		return &elements[62]
	case "thead":
		return &elements[63]
	case "title":
		return &elements[64]
	case "tr":
		return &elements[65]
	case "track":
		return &elements[66]
	case "u":
		return &elements[67]
	case "ul":
		return &elements[68]
	case "wbr":
		return &elements[69]
	}
	return nil
}

// otherElement is the element entry of every name elements lacks: no rule
// applies to it.
var otherElement element
