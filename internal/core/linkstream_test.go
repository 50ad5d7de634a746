package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"
)

// goldenLinkStreams pins what the engine's link path hands every strategy:
// FNV-1a over the ordered (absolute URL, tag path, AnchorText,
// SurroundingText) tuples extractNewLinks yields for every page of a
// breadth-first traversal. Recorded at commit 8e5abc9 (every link through
// url.Parse + ResolveReference + String; text nodes interned into strings)
// and verified in a pristine `git archive` checkout of that commit — a
// mismatch means a link string or its context changed: never regenerate.
var goldenLinkStreams = map[string]string{
	"ed": "pages=1322 links=1321 7ae4c08008b7e099",
	"il": "pages=1075 links=1074 93331de0f461401a",
	"be": "pages=832 links=831 20724a826b520ef7",
}

func TestGoldenLinkStream(t *testing.T) {
	for _, sp := range []struct {
		code  string
		scale float64
	}{{"ed", 0.012}, {"il", 0.001}, {"be", 0.025}} {
		env, _ := newTestEnv(t, sp.code, sp.scale, 1001)
		e, err := newEngine(env)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		field := func(s string) {
			io.WriteString(h, s)
			h.Write([]byte{0})
		}
		pages, links := 0, 0
		queue := []string{env.Root}
		e.seen[env.Root] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			p := e.fetchPage(u)
			pages++
			for _, l := range p.Links {
				field(l.URL)
				field("/" + strings.Join(l.TagPath, "/")) // the slash form the goldens hash
				field(l.AnchorText)
				field(l.SurroundingText)
				h.Write([]byte{1})
				e.seen[l.URL] = true // joins F, as every strategy's Ingest does
				queue = append(queue, l.URL)
				links++
			}
		}
		got := fmt.Sprintf("pages=%d links=%d %016x", pages, links, h.Sum64())
		if want := goldenLinkStreams[sp.code]; got != want {
			t.Errorf("%s link stream diverged from the parent commit's:\n got %s\nwant %s", sp.code, got, want)
		}
	}
}
