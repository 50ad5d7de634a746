package dom

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// token is a RawToken copied out of the tokenizer's views, so a whole stream
// can be held at once. Names keep their source case, as the views do.
type token struct {
	Type  TokenType
	Data  string
	Attrs []Attr
}

func materialize(raw RawToken) token {
	tok := token{Type: raw.Type, Data: string(raw.Data)}
	for _, a := range raw.Attrs {
		tok.Attrs = append(tok.Attrs, Attr{Name: string(a.Name), Value: string(a.Value)})
	}
	return tok
}

// collectRaw drains the tokenizer, materializing each raw token, and guards
// against non-termination.
func collectRaw(t *testing.T, src string) []token {
	t.Helper()
	var z Tokenizer
	z.Reset([]byte(src))
	var out []token
	for i := 0; ; i++ {
		if i > 10*len(src)+100 {
			t.Fatalf("tokenizer did not terminate on %q", src)
		}
		raw, ok := z.NextRaw()
		if !ok {
			return out
		}
		out = append(out, materialize(raw))
	}
}

// A longer closing-tag name must not terminate a raw-text element:
// "</scripted>" is not "</script>". (Regression: the closer search used a
// bare prefix match.)
func TestRawTextCloserRequiresBoundary(t *testing.T) {
	toks := collectRaw(t, `<script>a = "</scripted>";</script>`)
	if len(toks) < 2 || toks[0].Type != StartTagToken || toks[0].Data != "script" {
		t.Fatalf("unexpected token stream: %+v", toks)
	}
	if toks[1].Type != TextToken || toks[1].Data != `a = "</scripted>";` {
		t.Errorf("script content = %q, want the full raw text including </scripted>", toks[1].Data)
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "script" {
		t.Errorf("closer token = %+v, want </script>", toks[2])
	}
}

// The real closer may be followed by whitespace, '/', or '>' — and is
// matched case-insensitively without lowercasing the document.
func TestRawTextCloserForms(t *testing.T) {
	for _, src := range []string{
		"<script>x()</script>",
		"<script>x()</script >",
		"<script>x()</script/>",
		"<script>x()</SCRIPT>",
		"<SCRIPT>x()</script>",
		"<script>x()</script attr='v'>",
	} {
		toks := collectRaw(t, src)
		if len(toks) < 2 || toks[1].Type != TextToken || toks[1].Data != "x()" {
			t.Errorf("%q: script text not terminated correctly: %+v", src, toks)
		}
	}
	// Unterminated raw text consumes to EOF.
	toks := collectRaw(t, "<script>x()</scrip")
	if len(toks) != 2 || toks[1].Data != "x()</scrip" {
		t.Errorf("unterminated script = %+v, want raw text to EOF", toks)
	}
}

// The raw-text scan must not lowercase-copy the remaining document per
// raw-text element (the old O(n²) path): tokenizing a script-heavy page
// allocates nothing.
func TestRawTextScanZeroAlloc(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		sb.WriteString("<script>var x = 'aaaaaaaaaaaaaaaaaaaaaaaa';</script>")
	}
	src := []byte(sb.String())
	var z Tokenizer
	z.Reset(src)
	allocs := testing.AllocsPerRun(100, func() {
		z.Reset(src)
		for {
			if _, ok := z.NextRaw(); !ok {
				break
			}
		}
	})
	if allocs > 0 {
		t.Errorf("raw-text tokenization allocates %v per page, want 0", allocs)
	}
}

// Case folding applies to letters only: '\r' (0x0D) must not match '-'
// (0x2D), so "<!\r\r..." is a declaration (skipped to the next '>'), not a
// comment opener that swallows the document hunting for "-->".
func TestHasPrefixAtFoldsLettersOnly(t *testing.T) {
	if hasPrefixAt([]byte("<!\r\r"), 0, "<!--") {
		t.Error(`hasPrefixAt("<!\r\r", "<!--") = true; '\r' must not case-fold to '-'`)
	}
	if !hasPrefixAt([]byte("<!--"), 0, "<!--") {
		t.Error("exact match must still hold")
	}
	if !hasPrefixAt([]byte("<!DOCTYPE"), 2, "doctype") {
		t.Error("letter folding must still hold")
	}
	// End to end: the bogus opener must not eat the rest of the document.
	links := ExtractLinksAppend(nil, []byte("<!\r\r junk> <a href=\"/x\">t</a>"))
	if len(links) != 1 || links[0].URL != "/x" {
		t.Errorf("link after <!\\r\\r declaration lost: %+v", links)
	}
}

// Numeric character references to surrogate code points (U+D800–U+DFFF) are
// not scalar values and must be left verbatim, not decoded into invalid
// UTF-8.
func TestNumericRefRejectsSurrogates(t *testing.T) {
	for _, in := range []string{"&#xD800;", "&#xDFFF;", "&#55296;"} {
		if got := decodeEntities(in); got != in {
			t.Errorf("decodeEntities(%q) = %q, want the reference left verbatim", in, got)
		}
	}
	if got := decodeEntities("&#xD7FF;&#xE000;"); got != "퟿" {
		t.Errorf("adjacent non-surrogates must still decode, got %q", got)
	}
}

// SurroundingText truncation must back off to a rune boundary instead of
// splitting a multi-byte UTF-8 sequence mid-rune.
func TestTruncateRuneBoundary(t *testing.T) {
	// 256 bytes of prefix, then a multi-byte rune straddling the cut.
	prefix := strings.Repeat("x", 255)
	s := prefix + "é" // 'é' occupies bytes 255–256: the cut at 256 splits it
	got := truncate(s, 256)
	if !utf8.ValidString(got) {
		t.Errorf("truncate split a rune: %q ends with invalid UTF-8", got[250:])
	}
	if got != prefix {
		t.Errorf("truncate = %d bytes, want back-off to the rune boundary at 255", len(got))
	}
	// End to end: a link whose parent text is multi-byte at the cut.
	var sb strings.Builder
	sb.WriteString("<p>")
	for i := 0; i < 200; i++ {
		sb.WriteString("é") // 400 bytes of two-byte runes
	}
	sb.WriteString(`<a href="/x">t</a></p>`)
	links := ExtractLinksAppend(nil, []byte(sb.String()))
	if len(links) != 1 {
		t.Fatalf("got %d links, want 1", len(links))
	}
	if !utf8.ValidString(links[0].SurroundingText) {
		t.Error("SurroundingText contains a split rune")
	}
	if len(links[0].SurroundingText) > 256 {
		t.Errorf("SurroundingText = %d bytes, want ≤ 256", len(links[0].SurroundingText))
	}
}

// The raw stream hands out views: tag and attribute names in source case
// (consumers fold them), text and attribute values entity-decoded, and a
// trailing slash reported as a self-closing tag.
func TestRawTokenStream(t *testing.T) {
	toks := collectRaw(t, `<DIV Class="Main" data-x='a&amp;b'>Text &amp; more<BR/></DIV>`)
	if len(toks) != 4 {
		t.Fatalf("token count = %d, want 4: %+v", len(toks), toks)
	}
	if toks[0].Type != StartTagToken || toks[0].Data != "DIV" || len(toks[0].Attrs) != 2 ||
		toks[0].Attrs[0] != (Attr{"Class", "Main"}) || toks[0].Attrs[1] != (Attr{"data-x", "a&b"}) {
		t.Errorf("start tag = %+v", toks[0])
	}
	if toks[1].Type != TextToken || toks[1].Data != "Text & more" {
		t.Errorf("text = %+v", toks[1])
	}
	if toks[2].Type != SelfClosingTagToken || toks[2].Data != "BR" {
		t.Errorf("self-closing = %+v", toks[2])
	}
	if toks[3].Type != EndTagToken || toks[3].Data != "DIV" {
		t.Errorf("end tag = %+v", toks[3])
	}
}
