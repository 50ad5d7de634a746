package dom

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// decodeEntities resolves named and numeric character references in s.
func decodeEntities(s string) string { return string(appendDecodedEntities(nil, []byte(s))) }

const samplePage = `<!DOCTYPE html>
<html>
<head><title>Datasets &amp; Reports</title>
<script>var x = "<a href='/trap'>not a link</a>";</script>
<style>a { color: red; }</style>
</head>
<body>
  <div id="main" class="container">
    <ul class="datasets">
      <li><a href="/data/a.csv">Dataset A</a></li>
      <li><a href="/data/b.csv">Dataset B</a>
      <li><a href="/pages/more.html">More&hellip;</a></li>
    </ul>
    <p>Intro text <a href="relative.html">inline link</a> tail.
    <div class="sidebar promo"><a href="https://other.org/x">external</a></div>
    <map><area href="/map-target.pdf" alt="zone"/></map>
    <iframe src="/embed/frame.html"></iframe>
    <img src="/logo.png">
    <a href="">empty</a>
    <a>no href</a>
  </div>
</body>
</html>`

func TestParseBasicStructure(t *testing.T) {
	root := parse([]byte(samplePage))
	html := find(root, "html")
	if html == nil {
		t.Fatal("no <html> element")
	}
	if got := find(root, "title").Text(); got != "Datasets & Reports" {
		t.Errorf("title = %q, want %q (entity must decode)", got, "Datasets & Reports")
	}
	if div := find(root, "div"); div == nil || div.ID() != "main" {
		t.Errorf("first div should have id main, got %+v", div)
	}
}

func TestScriptContentIsNotParsed(t *testing.T) {
	for _, l := range ExtractLinksAppend(nil, []byte(samplePage)) {
		if l.URL == "/trap" {
			t.Fatal("link inside <script> must not be extracted")
		}
	}
}

func TestExtractLinks(t *testing.T) {
	links := ExtractLinksAppend(nil, []byte(samplePage))
	byURL := map[string]Link{}
	for _, l := range links {
		byURL[l.URL] = l
	}
	want := []string{
		"/data/a.csv", "/data/b.csv", "/pages/more.html",
		"relative.html", "https://other.org/x", "/map-target.pdf",
		"/embed/frame.html",
	}
	if len(links) != len(want) {
		t.Fatalf("extracted %d links, want %d: %+v", len(links), len(want), links)
	}
	for _, u := range want {
		if _, ok := byURL[u]; !ok {
			t.Errorf("missing link %q", u)
		}
	}
	if l := byURL["/data/a.csv"]; l.AnchorText != "Dataset A" {
		t.Errorf("anchor text = %q, want %q", l.AnchorText, "Dataset A")
	}
	if l := byURL["/map-target.pdf"]; l.Tag != "area" {
		t.Errorf("map target tag = %q, want area", l.Tag)
	}
	if l := byURL["/embed/frame.html"]; l.Tag != "iframe" {
		t.Errorf("iframe tag = %q, want iframe", l.Tag)
	}
}

func TestTagPathFormat(t *testing.T) {
	links := ExtractLinksAppend(nil, []byte(samplePage))
	var dataset Link
	for _, l := range links {
		if l.URL == "/data/a.csv" {
			dataset = l
		}
	}
	got := dataset.TagPath.String()
	want := "html body div#main.container ul.datasets li a"
	if got != want {
		t.Errorf("tag path = %q, want %q", got, want)
	}
}

func TestImpliedLiClose(t *testing.T) {
	// The sample's second <li> has no closing tag; the third <li> must still
	// be a sibling, not a descendant: in the reference tree the list has
	// three items, and the extracted paths of the last two links are equal.
	if ul := find(parse([]byte(samplePage)), "ul"); ul == nil || len(ul.Children) != 3 {
		t.Fatalf("ul = %+v, want three li children", ul)
	}
	links := ExtractLinksAppend(nil, []byte(samplePage))
	var b, more Link
	for _, l := range links {
		switch l.URL {
		case "/data/b.csv":
			b = l
		case "/pages/more.html":
			more = l
		}
	}
	if b.TagPath.String() != more.TagPath.String() {
		t.Errorf("unclosed <li> broke sibling paths: %q vs %q", b.TagPath, more.TagPath)
	}
}

func TestSidebarPathIncludesAllClasses(t *testing.T) {
	links := ExtractLinksAppend(nil, []byte(samplePage))
	for _, l := range links {
		if l.URL == "https://other.org/x" {
			want := "html body div#main.container div.sidebar.promo a"
			if got := l.TagPath.String(); got != want {
				t.Errorf("sidebar path = %q, want %q", got, want)
			}
			return
		}
	}
	t.Fatal("sidebar link not found")
}

// TestSurroundingText: a link's surrounding text is its own parent's whole
// text, not that of a child element closed in between.
func TestSurroundingText(t *testing.T) {
	links := ExtractLinksAppend(nil, []byte(samplePage))
	if i := slices.IndexFunc(links, func(l Link) bool { return l.URL == "relative.html" }); i < 0 {
		t.Error("inline link not found")
	} else if !strings.Contains(links[i].SurroundingText, "Intro text") {
		t.Errorf("surrounding text %q should contain the paragraph text", links[i].SurroundingText)
	}
	links = ExtractLinksAppend(nil, []byte(`<div>lead <a href=/1>one</a><p>inner <a href=/2>two</a></p> tail <a href=/3>three</a></div>`))
	want := []string{"lead one inner two tail three", "inner two", "lead one inner two tail three"}
	if len(links) != len(want) {
		t.Fatalf("got %d links, want %d", len(links), len(want))
	}
	for i, l := range links {
		if l.SurroundingText != want[i] {
			t.Errorf("link %s: surrounding text %q, want %q", l.URL, l.SurroundingText, want[i])
		}
	}
}

func TestMalformedHTMLDoesNotPanic(t *testing.T) {
	cases := []string{
		"",
		"<",
		"<<<<",
		"<a href=",
		"<a href='unclosed",
		"<div><span><a href='/x'>y</div>",
		"</closing-only>",
		"<!--unterminated comment",
		"<script>unterminated",
		"<a href=/x unquoted>t</a>",
		strings.Repeat("<div>", 1000) + "<a href='/deep'>d</a>",
		"<a href=\"&#x48;&#101;llo.html\">num</a>",
	}
	for _, c := range cases {
		_ = ExtractLinksAppend(nil, []byte(c)) // must not panic
	}
}

func TestUnquotedAndNumericEntityHref(t *testing.T) {
	links := ExtractLinksAppend(nil, []byte(`<a href=/plain.csv>p</a><a href="&#x48;i.html">n</a>`))
	if len(links) != 2 {
		t.Fatalf("got %d links, want 2", len(links))
	}
	if links[0].URL != "/plain.csv" {
		t.Errorf("unquoted href = %q", links[0].URL)
	}
	if links[1].URL != "Hi.html" {
		t.Errorf("numeric-entity href = %q", links[1].URL)
	}
}

func TestVoidElementsDoNotNest(t *testing.T) {
	src := []byte(`<div><img src="a.png"><a href="/x">link</a></div>`)
	if div := find(parse(src), "div"); div == nil || len(div.Children) != 2 || len(div.Children[0].Children) != 0 {
		t.Errorf("div = %+v, want the img childless and the a its sibling", div)
	}
	links := ExtractLinksAppend(nil, src)
	if len(links) != 1 {
		t.Fatalf("got %d links, want 1", len(links))
	}
	if got := links[0].TagPath.String(); got != "div a" {
		t.Errorf("path = %q, want %q (img must not become a container)", got, "div a")
	}
}

func TestSelfClosingTag(t *testing.T) {
	links := ExtractLinksAppend(nil, []byte(`<div><br/><a href="/x">link</a></div>`))
	if len(links) != 1 || links[0].TagPath.String() != "div a" {
		t.Errorf("self-closing br broke structure: %+v", links)
	}
}

func TestNodeText(t *testing.T) {
	root := parse([]byte(`<p>  hello   <b>bold</b>
	world </p>`))
	p := find(root, "p")
	if got := p.Text(); got != "hello bold world" {
		t.Errorf("Text = %q, want %q", got, "hello bold world")
	}
}

// TestFindAll: sibling elements of one kind all land in the tree, as
// siblings.
func TestFindAll(t *testing.T) {
	root := parse([]byte(`<ul><li>a</li><li>b</li><li>c</li></ul>`))
	ul := find(root, "ul")
	if ul == nil || len(ul.Children) != 3 {
		t.Fatalf("ul = %+v, want three li children", ul)
	}
	for _, li := range ul.Children {
		if li.Data != "li" {
			t.Errorf("ul child %q, want li", li.Data)
		}
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a &amp; b", "a & b"},
		{"x &lt;y&gt;", "x <y>"},
		{"&#65;&#66;", "AB"},
		{"&#x41;", "A"},
		{"&unknown;", "&unknown;"},
		{"no entities", "no entities"},
		{"&", "&"},
		{"&;", "&;"},
	}
	for _, c := range cases {
		if got := decodeEntities(c.in); got != c.want {
			t.Errorf("decodeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: parsing never panics and every extracted link's tag path ends at
// a linking element.
func TestExtractLinksProperty(t *testing.T) {
	f := func(fragments []uint8) bool {
		var b strings.Builder
		for _, x := range fragments {
			switch x % 7 {
			case 0:
				b.WriteString("<div class='c")
				b.WriteByte('0' + x%10)
				b.WriteString("'>")
			case 1:
				b.WriteString("</div>")
			case 2:
				b.WriteString("<a href='/p")
				b.WriteByte('0' + x%10)
				b.WriteString(".html'>t</a>")
			case 3:
				b.WriteString("text ")
			case 4:
				b.WriteString("<ul><li>")
			case 5:
				b.WriteString("<iframe src='/f.html'></iframe>")
			case 6:
				b.WriteString("<!-- c -->")
			}
		}
		links := ExtractLinksAppend(nil, []byte(b.String()))
		for _, l := range links {
			if len(l.TagPath) == 0 {
				return false
			}
			last := l.TagPath[len(l.TagPath)-1]
			if !strings.HasPrefix(last, "a") && !strings.HasPrefix(last, "iframe") && !strings.HasPrefix(last, "area") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: tag-path depth equals the element's ancestor chain length.
func TestPathDepthProperty(t *testing.T) {
	f := func(depth uint8) bool {
		d := int(depth%20) + 1
		html := strings.Repeat("<div>", d) + "<a href='/x'>y</a>" + strings.Repeat("</div>", d)
		links := ExtractLinksAppend(nil, []byte(html))
		if len(links) != 1 {
			return false
		}
		return len(links[0].TagPath) == d+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
