package dom

import (
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"sbcrawl/internal/freelist"
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

// TestRefusedHrefsAllocNothing: an href reaches admit as a view of the page,
// so a link admit refuses costs no string even when no parser has seen its
// href before — the intern table never meets it.
func TestRefusedHrefsAllocNothing(t *testing.T) {
	for len(parserFree) > 0 {
		<-parserFree
	}
	const runs = 100
	pages := make([][]byte, runs+2)
	for i := range pages {
		var sb strings.Builder
		sb.WriteString("<html><body><ul class=datasets>")
		for j := range 16 {
			sb.WriteString(`<li><a href="/data/p` + strconv.Itoa(i) + "-" + strconv.Itoa(j) + `.csv">download</a></li>`)
		}
		sb.WriteString("</ul></body></html>")
		pages[i] = []byte(sb.String())
	}
	refuse := func([]byte, func([]byte) string) (string, bool) { return "", false }
	var buf []Link
	buf = ExtractLinksFiltered(buf[:0], pages[0], AllFields, refuse) // warm: the parser's scratch
	i := 1
	if n := testing.AllocsPerRun(runs, func() {
		buf = ExtractLinksFiltered(buf[:0], pages[i], AllFields, refuse)
		i++
	}); n != 0 {
		t.Errorf("a page of 16 fresh hrefs, all refused, costs %v allocations, want 0", n)
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
		for range 2 * freelist.Cap { // every parked parser grows its scratch
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
	p := newParser()
	for i := 0; len(p.interned) < maxIntern; i++ {
		p.intern([]byte("filler-" + strconv.Itoa(i)))
	}
	putParser(p)
	full := allocsPerExtract(page)
	if full != fresh {
		t.Errorf("a page costs %v allocations on a parser whose table filled, %v on a fresh one", full, fresh)
	}
}

// TestRecycleDropsSourceViews: a parser's tokenizer and attribute slots are
// views of the page body while it runs; a parked parser must hold no slice of
// the body, nor its caller's admit callback.
func TestRecycleDropsSourceViews(t *testing.T) {
	for len(parserFree) > 0 {
		<-parserFree
	}
	page := buildPage(300, 8)
	p := newParser()
	p.want, p.admit = AllFields, func(href []byte, intern func([]byte) string) (string, bool) { return intern(href), true }
	p.run(page)
	if views := sourceViews(reflect.ValueOf(p).Elem(), page); views == 0 {
		t.Fatal("a running parser holds no view of its page: the check below checks nothing")
	}
	putParser(p)
	if len(parserFree) != 1 {
		t.Fatal("the parser was not parked")
	}
	p = <-parserFree
	if views := sourceViews(reflect.ValueOf(p).Elem(), page); views != 0 {
		t.Errorf("a parked parser holds %d slices of the last page", views)
	}
	if p.admit != nil {
		t.Error("a parked parser holds its last caller's admit callback")
	}
}

// sourceViews counts the byte slices and strings reachable from v, through
// structs, slices up to their capacity, and maps, whose memory lies inside
// body's.
func sourceViews(v reflect.Value, body []byte) int {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
	hi := lo + uintptr(len(body))
	inBody := func(p uintptr, n int) bool { return n > 0 && p < hi && p+uintptr(n) > lo }
	switch v.Kind() {
	case reflect.String:
		if s := v.String(); inBody(uintptr(unsafe.Pointer(unsafe.StringData(s))), len(s)) {
			return 1
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if inBody(v.Pointer(), v.Cap()) {
				return 1
			}
			return 0
		}
		n := 0
		v = v.Slice3(0, v.Cap(), v.Cap())
		for i := range v.Len() {
			n += sourceViews(v.Index(i), body)
		}
		return n
	case reflect.Struct:
		n := 0
		for i := range v.NumField() {
			n += sourceViews(v.Field(i), body)
		}
		return n
	case reflect.Map:
		n := 0
		for it := v.MapRange(); it.Next(); {
			n += sourceViews(it.Key(), body) + sourceViews(it.Value(), body)
		}
		return n
	}
	return 0
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
	putParser(newParser())
	if len(parserFree) != 1 {
		t.Fatal("an ordinary parser was not parked")
	}
	<-parserFree
	for name, grow := range map[string]func(p *parser){
		"text":    func(p *parser) { p.text = make([]byte, 0, maxParkedBytes+1) },
		"attrs":   func(p *parser) { p.z.attrs = make([]RawAttr, 0, maxParkedAttrs+1) },
		"stack":   func(p *parser) { p.stack = make([]openElement, 0, maxParkedSlots+1) },
		"path":    func(p *parser) { p.path = make([]string, 0, maxParkedSlots+1) },
		"pending": func(p *parser) { p.pending = make([]int, 0, maxParkedSlots+1) },
		"links":   func(p *parser) { p.links = make([]Link, 0, maxParkedSlots+1) },
	} {
		p := newParser()
		grow(p)
		putParser(p)
		if len(parserFree) != 0 {
			t.Errorf("a parser with outsized %s was parked", name)
			<-parserFree
		}
	}
}

// nestedPage renders n nested <div>s, each holding a word of text and one
// link, so every link's parent holds every deeper link's parent.
func nestedPage(n int) []byte {
	var sb strings.Builder
	for i := range n {
		sb.WriteString("<div>text ")
		sb.WriteString(strconv.Itoa(i))
		sb.WriteString(` <a href="/x">a</a>`)
	}
	sb.WriteString(strings.Repeat("</div>", n))
	return []byte(sb.String())
}

// TestNestedParentsExtractInLinearTime: a parent's text is read once, where
// it closes, from the page's one collapsed buffer, so extracting surrounding
// text from nested parents costs time linear in the page, where re-walking
// each parent's subtree costs the square of its depth. Eight times the
// nesting must cost well under the 64 times a quadratic walk would. The tag
// path is left out: a link's TagPath is depth-long, so that output alone is
// quadratic here.
func TestNestedParentsExtractInLinearTime(t *testing.T) {
	median := func(page []byte) time.Duration {
		var buf []Link
		runs := make([]time.Duration, 5)
		for i := range runs {
			start := time.Now()
			buf = ExtractLinksFiltered(buf[:0], page, SurroundingTextField, nil)
			runs[i] = time.Since(start)
		}
		slices.Sort(runs)
		return runs[len(runs)/2]
	}
	small, big := nestedPage(500), nestedPage(4000)
	median(big) // warm the parser's scratch to the bigger page
	ts, tb := median(small), median(big)
	ratio := float64(tb) / float64(ts)
	if ratio >= 24 {
		t.Errorf("8x the nesting costs %.1fx the time (%v at 500 parents, %v at 4,000): want linear, under 24x", ratio, ts, tb)
	}
	t.Logf("8x the nesting costs %.1fx the time (%v at 500 parents, %v at 4,000)", ratio, ts, tb)
}
