// Package webserver exposes a generated sitegen.Site through HTTP semantics:
// GET/HEAD with statuses, Content-Type, Location headers, and bodies. It
// serves both the in-memory path used by experiments and a net/http.Handler
// so the same site can be crawled over a real socket (examples/live_http).
package webserver

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"

	"sbcrawl/internal/sitegen"
)

// Response is one HTTP exchange as the crawler sees it.
type Response struct {
	// URL is the requested URL (the server never follows redirects;
	// following is the crawler's job, per Algorithm 4).
	URL string
	// Status is the HTTP status code.
	Status int
	// MIME is the Content-Type (empty when the server sends none).
	MIME string
	// Location is the redirect destination for 3xx responses.
	Location string
	// Body is the response body; nil for HEAD requests and errors.
	Body []byte
	// ContentLength is the body size the server advertises, present even
	// for HEAD responses.
	ContentLength int
	// RetryAfter is the Retry-After header in seconds for 503/429
	// answers (0 when absent).
	RetryAfter int
}

// HeaderOverheadBytes approximates the on-wire size of response headers; it
// is the c(u) cost of a HEAD request when ω measures volume (Sec. 2.2).
const HeaderOverheadBytes = 220

// Server serves a generated site.
type Server struct {
	site *sitegen.Site
	// trap enables the infinite /calendar/ URL space (see trap.go).
	trap bool
}

// New wraps a site.
func New(site *sitegen.Site) *Server { return &Server{site: site} }

// Get performs an HTTP GET.
func (s *Server) Get(url string) Response { return s.respond(url, false) }

// Head performs an HTTP HEAD: same status line and headers, no body.
func (s *Server) Head(url string) Response {
	resp := s.respond(url, true)
	resp.Body = nil
	return resp
}

// htmlMIME is the Content-Type of every HTML page.
const htmlMIME = "text/html; charset=utf-8"

// respond answers a request for url. With head set, no body is built: a
// target is not rendered, since RenderPage writes its SizeB bytes exactly,
// and an HTML page, whose length depends on the rendering, is measured in
// the renderer's scratch without its copy.
func (s *Server) respond(url string, head bool) Response {
	if n, ok := s.trapURL(url); ok {
		return s.trapPage(url, n)
	}
	pg, ok := s.site.Lookup(url)
	if !ok {
		return Response{URL: url, Status: 404}
	}
	if pg.Kind != sitegen.KindHTML {
		return s.respondPage(url, pg, head)
	}
	resp := Response{URL: url, Status: 200, MIME: htmlMIME}
	trapped := s.trap && pg.ID == 0
	if head {
		s.site.ViewHTML(pg, func(body []byte) { resp.ContentLength = len(body) })
		if trapped {
			resp.ContentLength += len(trapEntryHTML)
		}
		return resp
	}
	resp.Body = s.site.RenderPage(pg)
	if trapped {
		resp.Body = injectTrapEntry(resp.Body)
	}
	resp.ContentLength = len(resp.Body)
	return resp
}

// respondPage answers, under url, a request for a page that is not HTML;
// head is respond's.
func (s *Server) respondPage(url string, pg *sitegen.Page, head bool) Response {
	switch pg.Kind {
	case sitegen.KindError:
		return Response{URL: url, Status: pg.Status}
	case sitegen.KindRedirect:
		return Response{
			URL: url, Status: pg.Status,
			Location: s.site.PageByID(pg.RedirectTo).URL,
		}
	case sitegen.KindTarget:
		var body []byte
		if !head {
			body = s.site.RenderPage(pg)
		}
		return Response{
			URL: url, Status: 200, MIME: pg.MIME,
			Body: body, ContentLength: pg.SizeB,
		}
	}
	return Response{URL: url, Status: 500}
}

// Handler returns an http.Handler serving the site over a real socket. URLs
// are matched by path (the site's host is replaced by the listener's), which
// lets examples crawl https://www.X.gov content from 127.0.0.1.
func (s *Server) Handler() http.Handler {
	// Index pages by path for host-independent lookup.
	byPath := make(map[string]*sitegen.Page)
	prefix := "https://" + s.site.Profile.Host
	for _, pg := range s.site.Pages() {
		byPath[strings.TrimPrefix(pg.URL, prefix)] = pg
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		if r.URL.RawQuery != "" {
			path += "?" + r.URL.RawQuery
		}
		pg, ok := byPath[path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		switch pg.Kind {
		case sitegen.KindError:
			w.WriteHeader(pg.Status)
		case sitegen.KindRedirect:
			dest := s.site.PageByID(pg.RedirectTo).URL
			w.Header().Set("Location", strings.TrimPrefix(dest, prefix))
			w.WriteHeader(pg.Status)
		default:
			// A target's length is its SizeB, so a HEAD of one renders
			// nothing (see respond).
			var body []byte
			mime, n := pg.MIME, pg.SizeB
			if pg.Kind == sitegen.KindHTML {
				mime = htmlMIME
				// Rewrite absolute same-site URLs to relative paths so the
				// whole site stays in scope when served from 127.0.0.1.
				body = bytes.ReplaceAll(s.site.RenderPage(pg), []byte(prefix), nil)
				n = len(body)
			} else if r.Method != http.MethodHead {
				body = s.site.RenderPage(pg)
			}
			w.Header().Set("Content-Type", mime)
			w.Header().Set("Content-Length", strconv.Itoa(n))
			if r.Method != http.MethodHead {
				if _, err := w.Write(body); err != nil {
					return
				}
			}
		}
	})
}
