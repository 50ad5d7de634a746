package webserver

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
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
// HEAD answers what GET answers minus the body — a target's ContentLength
// too, which HEAD takes from SizeB without rendering: it allocates nothing.
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
	targets := 0
	for _, site := range sites {
		s := New(site)
		for _, pg := range site.Pages() {
			check(s, pg.URL)
			if pg.Kind != sitegen.KindTarget {
				continue
			}
			targets++
			if !raceEnabled {
				if n := testing.AllocsPerRun(1, func() { s.Head(pg.URL) }); n != 0 {
					t.Fatalf("HEAD %s allocates %v times: the target was rendered", pg.URL, n)
				}
			}
		}
	}
	check(fed, fed.Root())
	for _, m := range fed.members {
		for _, pg := range m.site.Pages() {
			check(fed, m.translateOut(pg.URL))
		}
	}
	if targets == 0 || len(fed.TargetURLs()) == 0 {
		t.Fatal("no targets checked")
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
// replaced, in one allocation.
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
			}
			pages++
		}
	}
	if pages == 0 {
		t.Fatal("no HTML pages")
	}
}
