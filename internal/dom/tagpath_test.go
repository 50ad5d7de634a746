package dom

import (
	"slices"
	"strings"
	"testing"

	"sbcrawl/internal/sitegen"
)

// pathTo returns the tag path from the document root to n (inclusive),
// excluding the synthetic #document node, rebuilt from the reference tree's
// Parent chain: the oracle for the extractor's open-element stack.
func pathTo(n *Node) TagPath {
	var path TagPath
	for m := n; m != nil && m.Data != "#document"; m = m.Parent {
		if m.Type == ElementNode {
			path = append(path, pathToken(m))
		}
	}
	slices.Reverse(path)
	return path
}

// linkNodes returns the elements ExtractLinksAppend turns into links, in document
// order: a linking element whose URL attribute is non-blank.
func linkNodes(root *Node) []*Node {
	var out []*Node
	walk(root, func(n *Node) bool {
		if n.Type != ElementNode {
			return true
		}
		if attr, ok := linkAttr[n.Data]; ok {
			if href, _ := n.Attr(attr); strings.TrimSpace(href) != "" {
				out = append(out, n)
			}
		}
		return true
	})
	return out
}

// TestExtractedTagPathsShareEqualNeighbours: on rendered sitegen pages every
// extracted TagPath equals pathTo of its element, a link whose path equals
// the previous link's shares that link's slice, and one whose path differs
// gets its own.
func TestExtractedTagPathsShareEqualNeighbours(t *testing.T) {
	shared, links := 0, 0
	for _, code := range []string{"cn", "ed", "il"} {
		p, ok := sitegen.ProfileByCode(code)
		if !ok {
			t.Fatalf("profile %s missing", code)
		}
		site := sitegen.Generate(sitegen.Config{Profile: p, Scale: 0.002, Seed: 1})
		pages := 0
		for _, pg := range site.Pages() {
			if pg.Kind != sitegen.KindHTML {
				continue
			}
			src := site.RenderPage(pg)
			got := ExtractLinksAppend(nil, src)
			nodes := linkNodes(parse(src))
			if len(got) != len(nodes) {
				t.Fatalf("%s %s: %d links for %d linking elements", code, pg.URL, len(got), len(nodes))
			}
			for i, l := range got {
				if want := pathTo(nodes[i]); !slices.Equal(l.TagPath, want) {
					t.Fatalf("%s %s link %d: TagPath %q, pathTo %q", code, pg.URL, i, l.TagPath, want)
				}
				if i == 0 {
					continue
				}
				same := &l.TagPath[0] == &got[i-1].TagPath[0]
				if equal := slices.Equal(l.TagPath, got[i-1].TagPath); equal != same {
					t.Fatalf("%s %s link %d: path equal to the previous %v, sharing its slice %v", code, pg.URL, i, equal, same)
				}
				if same {
					shared++
				}
			}
			links += len(got)
			if pages++; pages >= 40 {
				break
			}
		}
	}
	if shared == 0 {
		t.Fatalf("no two consecutive links of %d share a path", links)
	}
	t.Logf("%d of %d links share the previous link's path", shared, links)
}

// TestParkedParserHoldsNoLastPath: a parser on the free list keeps no link's
// path alive.
func TestParkedParserHoldsNoLastPath(t *testing.T) {
	ExtractLinksAppend(nil, []byte(samplePage))
	var parked []*parser
	for len(parserFree) > 0 {
		parked = append(parked, <-parserFree)
	}
	if len(parked) == 0 {
		t.Fatal("no parser parked after an extraction")
	}
	for _, p := range parked {
		if p.lastPath != nil {
			t.Errorf("parked parser holds lastPath %q", p.lastPath)
		}
		putParser(p)
	}
}
