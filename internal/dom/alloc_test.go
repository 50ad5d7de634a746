package dom

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// buildPage renders a page with nLinks anchors and `filler` copies of a
// link-free content block, so byte size and link count vary independently.
func buildPage(nLinks, filler int) []byte {
	var sb strings.Builder
	sb.WriteString("<html><body><div id=main class='content wide'>")
	for i := 0; i < filler; i++ {
		sb.WriteString("<p>Filler paragraph with <b>markup</b>, entities &amp; text, ")
		sb.WriteString("and a <script>var x = 'raw text payload';</script> block.</p>")
	}
	sb.WriteString("<ul class=datasets>")
	for i := 0; i < nLinks; i++ {
		// A fixed URL/anchor set so steady-state runs hit the intern table.
		sb.WriteString(`<li><a href="/data/file`)
		sb.WriteByte(byte('a' + i%16))
		sb.WriteString(`.csv">download</a></li>`)
	}
	sb.WriteString("</ul></div></body></html>")
	return []byte(sb.String())
}

// allocsPerExtract measures steady-state allocations of the pooled
// extraction path, reusing one link buffer the way the engine does.
func allocsPerExtract(page []byte) float64 {
	var buf []Link
	buf = ExtractLinksAppend(buf[:0], page) // warm: free list, arenas, intern table
	return testing.AllocsPerRun(100, func() {
		buf = ExtractLinksAppend(buf[:0], page)
	})
}

// TestExtractLinksAllocsBoundedByLinks is the hot path's allocation gate:
// steady-state extraction allocates O(links) per page — the escaping Link
// strings — never O(bytes). Doubling the page's link-free content must not
// move the allocation count, and the per-link cost must stay small.
func TestExtractLinksAllocsBoundedByLinks(t *testing.T) {
	const nLinks = 16
	small := allocsPerExtract(buildPage(nLinks, 4))
	big := allocsPerExtract(buildPage(nLinks, 64)) // ~12x the bytes, same links
	if big > small+4 {
		t.Errorf("allocations scale with page bytes: %v allocs at filler=4 vs %v at filler=64", small, big)
	}
	// Per-link budget: the TagPath copy. URL, anchor and surrounding text come
	// out of the warm intern table, and text nodes are views of the source.
	if limit := nLinks + 4; big > float64(limit) {
		t.Errorf("steady-state extraction allocates %v per page, want ≤ %d for %d links", big, limit, nLinks)
	}
}

// TestExtractLinksAllocsIndependentOfText pins the text-node views: prose too
// long for the intern table (plain, and entity-decoded into the parser's
// arena) must not cost a string per text node per page.
func TestExtractLinksAllocsIndependentOfText(t *testing.T) {
	const nLinks = 16
	prose := "<p>" + strings.Repeat("a sentence of running prose, ", 4) + "</p>" +
		"<p>" + strings.Repeat("caf&eacute; &amp; cr&egrave;me, ", 4) + "</p>"
	page := append(buildPage(nLinks, 0), strings.Repeat(prose, 32)...)
	bare := allocsPerExtract(buildPage(nLinks, 0))
	if got := allocsPerExtract(page); got > bare {
		t.Errorf("link-free text costs allocations: %v with 64 long text nodes vs %v without", got, bare)
	}
}

// TestParseAllocsIndependentOfRawText pins the raw-text satellite end to
// end: script-heavy pages must not cost allocations proportional to script
// bytes (the old per-element lowercase copy of the document tail).
func TestParseAllocsIndependentOfRawText(t *testing.T) {
	link := `<a href="/x">t</a>`
	light := []byte("<html><body>" + link + strings.Repeat("<script>var a = 1;</script>", 2) + "</body></html>")
	heavy := []byte("<html><body>" + link + strings.Repeat("<script>var a = 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa';</script>", 64) + "</body></html>")
	a1 := allocsPerExtract(light)
	a2 := allocsPerExtract(heavy)
	if a2 > a1+4 {
		t.Errorf("raw-text bytes leak into allocations: %v (light) vs %v (heavy)", a1, a2)
	}
}

// TestSurroundingTextCostsItsCap: a link's SurroundingText is cut to its 256
// bytes before it becomes a string, so a link under a 64 KB paragraph costs
// what one under a 1 KB paragraph does — not a copy of the paragraph's text,
// which every such link in a frontier would keep alive.
func TestSurroundingTextCostsItsCap(t *testing.T) {
	perExtract := func(parentBytes int) uint64 {
		page := []byte("<p>" + strings.Repeat("word ", parentBytes/5) + `<a href="/x">t</a></p>`)
		var buf []Link
		extract := func() { buf = ExtractLinksAppend(buf[:0], page) }
		for range 2 * parserFreeCap { // every parked parser grows its scratch
			extract()
		}
		if len(buf) != 1 || len(buf[0].SurroundingText) != 256 {
			t.Fatalf("%d-byte parent: %d links, want 1 with 256 bytes of context", parentBytes, len(buf))
		}
		const runs = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			extract()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, big := perExtract(1<<10), perExtract(64<<10)
	if big >= small+256 {
		t.Errorf("a link under a 64 KB parent costs %d bytes an extraction, under a 1 KB one %d: want within 256", big, small)
	}
}

// TestFullInternTableStartsOver: a parser whose intern table filled on
// earlier pages starts the table over instead of allocating every new string
// from then on, so it warms to the page it parses now.
func TestFullInternTableStartsOver(t *testing.T) {
	drain := func() {
		for len(parserFree) > 0 {
			<-parserFree
		}
	}
	page := buildPage(16, 4)
	drain()
	fresh := allocsPerExtract(page) // one parser, built for it and parked
	drain()
	p := newParser(true)
	for i := 0; len(p.interned) < maxIntern+len(commonStrings); i++ {
		p.intern([]byte("filler-" + strconv.Itoa(i)))
	}
	putParser(p)
	full := allocsPerExtract(page)
	if full != fresh {
		t.Errorf("a page costs %v allocations on a parser whose table filled, %v on a fresh one", full, fresh)
	}
}

// TestRecycleDropsSourceViews: text nodes of a pooled run are views of the
// page body; a recycled parser waiting in the pool must not keep them.
func TestRecycleDropsSourceViews(t *testing.T) {
	p := newParser(true)
	root := p.parse(buildPage(300, 8)) // spills into a second arena block
	views := 0
	walk(root, func(n *Node) bool {
		if n.text != nil {
			views++
		}
		return true
	})
	if views == 0 {
		t.Fatal("a pooled parse produced no text views")
	}
	p.recycle()
	for _, c := range p.chunks {
		for i := range c {
			if c[i].text != nil {
				t.Fatalf("recycled parser still holds a %d-byte view of the last page", len(c[i].text))
			}
		}
	}
}

// TestExtractLinksAllocsSurviveGC: the free list keeps its parsers across
// collections (a sync.Pool is emptied by two), so a page extracted after a
// GC costs the warm count, not a rebuilt arena and a refilled intern table.
func TestExtractLinksAllocsSurviveGC(t *testing.T) {
	page := buildPage(16, 64)
	warm := allocsPerExtract(page)
	var buf []Link
	afterGC := testing.AllocsPerRun(10, func() {
		runtime.GC()
		runtime.GC()
		buf = ExtractLinksAppend(buf[:0], page)
	})
	if afterGC > warm {
		t.Errorf("extraction after a GC allocates %v per page, %v warm: the parser did not survive", afterGC, warm)
	}
}

// TestOutsizedParserIsNotParked: the free list never shrinks, so a parser a
// huge page grew must not come back from it.
func TestOutsizedParserIsNotParked(t *testing.T) {
	for len(parserFree) > 0 {
		<-parserFree
	}
	putParser(newParser(true))
	if len(parserFree) != 1 {
		t.Fatal("an ordinary parser was not parked")
	}
	<-parserFree
	for name, grow := range map[string]func(p *parser){
		"nodes": func(p *parser) { p.chunks = make([][]Node, maxParkedChunks+1) },
		"text":  func(p *parser) { p.textArena = make([]byte, 0, maxParkedBytes+1) },
		"attrs": func(p *parser) { p.z.attrs = make([]RawAttr, 0, maxParkedAttrs+1) },
	} {
		p := newParser(true)
		grow(p)
		putParser(p)
		if len(parserFree) != 0 {
			t.Errorf("a parser with outsized %s was parked", name)
			<-parserFree
		}
	}
}
