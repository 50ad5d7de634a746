package webserver

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sbcrawl/internal/sitegen"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	p, ok := sitegen.ProfileByCode("cl")
	if !ok {
		t.Fatal("profile cl missing")
	}
	return New(sitegen.Generate(sitegen.Config{Profile: p, Scale: 0.02, Seed: 3}))
}

func TestGetRoot(t *testing.T) {
	s := newTestServer(t)
	resp := s.Get(s.site.Root())
	if resp.Status != 200 {
		t.Fatalf("root status = %d", resp.Status)
	}
	if !strings.HasPrefix(resp.MIME, "text/html") {
		t.Errorf("root MIME = %q", resp.MIME)
	}
	if len(resp.Body) == 0 || resp.ContentLength != len(resp.Body) {
		t.Errorf("body %d bytes, content-length %d", len(resp.Body), resp.ContentLength)
	}
}

func TestHeadHasNoBodyButLength(t *testing.T) {
	s := newTestServer(t)
	resp := s.Head(s.site.Root())
	if resp.Body != nil {
		t.Error("HEAD must not carry a body")
	}
	if resp.ContentLength == 0 {
		t.Error("HEAD must still advertise Content-Length")
	}
}

func TestTargetResponseMIME(t *testing.T) {
	s := newTestServer(t)
	urls := s.site.TargetURLs()
	if len(urls) == 0 {
		t.Fatal("no targets")
	}
	resp := s.Get(urls[0])
	if resp.Status != 200 {
		t.Fatalf("target status = %d", resp.Status)
	}
	pg, _ := s.site.Lookup(urls[0])
	if resp.MIME != pg.MIME {
		t.Errorf("MIME %q, want %q", resp.MIME, pg.MIME)
	}
	if len(resp.Body) != pg.SizeB {
		t.Errorf("body %d bytes, want %d", len(resp.Body), pg.SizeB)
	}
}

func TestErrorAndRedirectResponses(t *testing.T) {
	s := newTestServer(t)
	var sawErr, sawRedir bool
	for _, pg := range s.site.Pages() {
		switch pg.Kind {
		case sitegen.KindError:
			resp := s.Get(pg.URL)
			if resp.Status != pg.Status {
				t.Errorf("error page status %d, want %d", resp.Status, pg.Status)
			}
			sawErr = true
		case sitegen.KindRedirect:
			resp := s.Get(pg.URL)
			if resp.Status != 301 || resp.Location == "" {
				t.Errorf("redirect response %+v lacks Location", resp)
			}
			sawRedir = true
		}
	}
	if !sawErr || !sawRedir {
		t.Error("site must contain error and redirect pages for this test")
	}
}

func TestUnknownURL404(t *testing.T) {
	s := newTestServer(t)
	if resp := s.Get("https://www.collectivites-locales.gouv.fr/never-generated"); resp.Status != 404 {
		t.Errorf("unknown URL status = %d, want 404", resp.Status)
	}
}

func TestHTTPHandlerRoundTrip(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Root over a real socket.
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Fatalf("live root: status %d, %d bytes", resp.StatusCode, len(body))
	}

	// A redirect must surface as 301 with Location, not be auto-followed.
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for _, pg := range s.site.Pages() {
		if pg.Kind != sitegen.KindRedirect {
			continue
		}
		path := strings.TrimPrefix(pg.URL, "https://"+s.site.Profile.Host)
		r2, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != 301 || r2.Header.Get("Location") == "" {
			t.Errorf("live redirect: status %d location %q", r2.StatusCode, r2.Header.Get("Location"))
		}
		break
	}

	// Unknown path 404s.
	r3, err := http.Get(ts.URL + "/definitely-not-a-page")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != 404 {
		t.Errorf("unknown path status = %d", r3.StatusCode)
	}
}

func TestTrapPagesServeDynamically(t *testing.T) {
	s := newTestServer(t)
	s.EnableTrap()
	host := "https://" + s.site.Profile.Host

	// The root page gains the archive entry link.
	root := s.Get(s.site.Root())
	if !strings.Contains(string(root.Body), "/calendar/1") {
		t.Error("trap entry link missing from the root page")
	}
	// Trap pages resolve dynamically, arbitrarily deep, and link deeper.
	deep := s.Get(host + "/calendar/123456789")
	if deep.Status != 200 || !strings.Contains(string(deep.Body), "/calendar/246913578") {
		t.Errorf("deep trap page: status %d body %q…", deep.Status, truncateStr(string(deep.Body), 80))
	}
	// Invalid trap indices are not part of the space.
	if resp := s.Get(host + "/calendar/zero"); resp.Status != 404 {
		t.Errorf("malformed trap URL status = %d, want 404", resp.Status)
	}
	// Without the trap, the space does not exist.
	s2 := newTestServer(t)
	if resp := s2.Get(host + "/calendar/1"); resp.Status != 404 {
		t.Errorf("trap disabled: status = %d, want 404", resp.Status)
	}
}

func truncateStr(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

func TestHandlerHeadOmitsBody(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Head(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 0 {
		t.Errorf("HEAD returned %d body bytes", len(body))
	}
	if resp.Header.Get("Content-Type") == "" {
		t.Error("HEAD must carry Content-Type")
	}
}
