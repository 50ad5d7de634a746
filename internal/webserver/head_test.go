package webserver

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sbcrawl/internal/sitegen"
)

func testSites(t *testing.T, codes []string, scale float64, seed int64) []*sitegen.Site {
	t.Helper()
	sites := make([]*sitegen.Site, len(codes))
	for i, code := range codes {
		p, ok := sitegen.ProfileByCode(code)
		if !ok {
			t.Fatalf("profile %s missing", code)
		}
		sites[i] = sitegen.Generate(sitegen.Config{Profile: p, Scale: scale, Seed: seed + int64(i)*1000003})
	}
	return sites
}

// TestHeadIsGetMinusBody: for every page of two sites and of a federation,
// HEAD answers what GET answers minus the body, and builds no body. A
// target's ContentLength HEAD takes from SizeB without rendering, and an
// HTML page's it measures in the renderer's scratch, so a site's HEAD
// allocates nothing; a federation's allocates only the canonical URL it
// resolves the request to.
func TestHeadIsGetMinusBody(t *testing.T) {
	type backend interface {
		Get(url string) Response
		Head(url string) Response
	}
	sites := testSites(t, []string{"cl", "ju"}, 0.02, 3)
	fed := NewFederation("federation.test", testSites(t, []string{"cn", "cl", "ce"}, 0.005, 7))
	check := func(b backend, url string) {
		get, head := b.Get(url), b.Head(url)
		if get.ContentLength != len(get.Body) {
			t.Fatalf("GET %s: ContentLength %d, body %d bytes", url, get.ContentLength, len(get.Body))
		}
		get.Body = nil
		if !reflect.DeepEqual(head, get) {
			t.Fatalf("%s:\nHEAD %+v\nGET  %+v minus its body", url, head, get)
		}
	}
	// parked: an HTML page that renders into sitegen's parked scratch, one
	// whose size hint (1 KB + 160 B a link) is within 16 KB, as that of a
	// page of up to 8 KB is on these sites. A page hinted larger allocates
	// a scratch of its own.
	parked := func(b backend, url string) bool {
		return len(b.Get(url).Body) <= 8<<10
	}
	targets, html := 0, 0
	for _, site := range sites {
		s := New(site)
		for _, pg := range site.Pages() {
			check(s, pg.URL)
			switch {
			case pg.Kind == sitegen.KindTarget:
				targets++
			case pg.Kind == sitegen.KindHTML && parked(s, pg.URL):
				html++
			default:
				continue
			}
			if !raceEnabled {
				if n := testing.AllocsPerRun(1, func() { s.Head(pg.URL) }); n != 0 {
					t.Fatalf("HEAD %s allocates %v times: a body was built", pg.URL, n)
				}
			}
		}
	}
	// A trapped root page is measured with its archive entry.
	trapped := New(sites[0])
	trapped.EnableTrap()
	check(trapped, sites[0].Root())
	check(fed, fed.Root())
	fedHTML := 0
	for _, m := range fed.members {
		for _, pg := range m.site.Pages() {
			url := m.translateOut(pg.URL)
			check(fed, url)
			if pg.Kind != sitegen.KindHTML || !parked(fed, url) {
				continue
			}
			fedHTML++
			if !raceEnabled {
				if n := testing.AllocsPerRun(1, func() { fed.Head(url) }); n != 1 {
					t.Fatalf("HEAD %s allocates %v times, want 1 (the canonical URL): a body was built", url, n)
				}
			}
		}
	}
	if targets == 0 || len(fed.TargetURLs()) == 0 {
		t.Fatal("no targets checked")
	}
	if html == 0 || fedHTML == 0 {
		t.Fatal("no HTML pages checked")
	}
}

// TestHandlerHeadIsGetMinusBody: over the net/http handler, a HEAD of every
// page carries the status and headers of its GET, Content-Length included,
// and no body.
func TestHandlerHeadIsGetMinusBody(t *testing.T) {
	site := testSites(t, []string{"ju"}, 0.02, 3)[0]
	h := New(site).Handler()
	for _, pg := range site.Pages() {
		path := strings.TrimPrefix(pg.URL, "https://"+site.Profile.Host)
		get, head := httptest.NewRecorder(), httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, path, nil))
		h.ServeHTTP(head, httptest.NewRequest(http.MethodHead, path, nil))
		if head.Code != get.Code || !reflect.DeepEqual(head.Header(), get.Header()) {
			t.Fatalf("%s: HEAD %d %v, GET %d %v", path, head.Code, head.Header(), get.Code, get.Header())
		}
		if head.Body.Len() != 0 {
			t.Fatalf("%s: HEAD wrote %d body bytes", path, head.Body.Len())
		}
		if cl := get.Header().Get("Content-Length"); cl != "" && cl != fmt.Sprint(get.Body.Len()) {
			t.Fatalf("%s: Content-Length %s, body %d bytes", path, cl, get.Body.Len())
		}
	}
}

// TestRewriteMatchesReplaceAll: the one-pass rewrite gives, for every HTML
// page of a ce×8 federation, the bytes of the two-pass expression it
// replaced, in one allocation; and a federated GET of the page, which
// rewrites straight from the renderer's scratch, allocates that body and
// nothing body-sized besides: two objects, the other the canonical URL the
// request resolves to.
func TestRewriteMatchesReplaceAll(t *testing.T) {
	codes := make([]string, 8)
	for i := range codes {
		codes[i] = "ce"
	}
	f := NewFederation("federation.test", testSites(t, codes, 0.001, 1))
	old := func(m *federationMember, url string, body []byte) []byte {
		body = bytes.ReplaceAll(body, []byte(m.canonical), []byte(m.sub))
		next := f.nextOf(m)
		mirror := next.sub + strings.TrimPrefix(url, m.sub)
		footer := fmt.Sprintf(
			`<footer><a href="%s">federation portal</a> <a href="%s">next member</a> <a href="%s">mirror</a></footer>`,
			f.portalURL, next.root, mirror)
		out := make([]byte, 0, len(body)+len(footer))
		out = append(out, body...)
		out = append(out, footer...)
		return out
	}
	pages := 0
	for _, m := range f.members {
		for _, pg := range m.site.Pages() {
			if pg.Kind != sitegen.KindHTML {
				continue
			}
			url, body := m.translateOut(pg.URL), m.site.RenderPage(pg)
			want := old(m, url, body)
			got := f.rewrite(m, url, body)
			if !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("%s: rewrite gives %d bytes (cap %d), the two-pass expression %d", url, len(got), cap(got), len(want))
			}
			if !raceEnabled {
				if n := testing.AllocsPerRun(5, func() { f.rewrite(m, url, body) }); n != 1 {
					t.Fatalf("%s: rewrite allocates %v times, want 1", url, n)
				}
				if n := testing.AllocsPerRun(5, func() { f.Get(url) }); n != 2 {
					t.Fatalf("%s: GET allocates %v times, want 2 (the body and the canonical URL)", url, n)
				}
				// The least of three GETs: TotalAlloc also counts the odd
				// allocation of another goroutine, which only ever adds bytes.
				least := uint64(math.MaxUint64)
				for range 3 {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					f.Get(url)
					runtime.ReadMemStats(&after)
					least = min(least, after.TotalAlloc-before.TotalAlloc)
				}
				// Size classes round the body up by at most an eighth; a
				// second body-sized object would take the total past 1.5.
				if limit := uint64(len(want)) * 3 / 2; least > limit {
					t.Fatalf("%s: GET allocates %d bytes for a %d-byte body, want ≤ %d", url, least, len(want), limit)
				}
			}
			pages++
		}
	}
	if pages == 0 {
		t.Fatal("no HTML pages")
	}
}
