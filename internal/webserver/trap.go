package webserver

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Robot-trap simulation: an infinite, dynamically generated URL space —
// the calendar-archive pattern that makes depth-first crawling "rarely used
// for exhaustive crawling" (Sec. 4.3). Each trap page links two deeper trap
// pages, so a LIFO frontier descends forever while learning crawlers observe
// zero reward on the trap's tag path and abandon it.

// trapPathPrefix roots the synthetic infinite URL space.
const trapPathPrefix = "/calendar/"

// EnableTrap turns on the robot trap: the root page grows an "archive" link
// into /calendar/1, and every /calendar/<n> URL resolves to a dynamic HTML
// page linking /calendar/<2n> and /calendar/<2n+1>.
func (s *Server) EnableTrap() { s.trap = true }

// trapEntryHTML is injected into the root page before </body>.
const trapEntryHTML = `<div class="archive-nav"><a class="calendar-link" href="/calendar/1">calendar archive</a></div>`

// trapURL reports whether the URL lies in the trap space and extracts its
// index.
func (s *Server) trapURL(url string) (int, bool) {
	if !s.trap {
		return 0, false
	}
	prefix := "https://" + s.site.Profile.Host + trapPathPrefix
	if !strings.HasPrefix(url, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(url, prefix))
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// trapPage renders the dynamic trap page for index n.
func (s *Server) trapPage(url string, n int) Response {
	host := "https://" + s.site.Profile.Host
	body := fmt.Sprintf(`<!DOCTYPE html>
<html><head><title>Archive %d</title></head><body>
<div class="archive"><h1>Archive period %d</h1>
<ul class="calendar-days">
<li><a class="day" href="%s%s%d">earlier</a></li>
<li><a class="day" href="%s%s%d">later</a></li>
</ul></div>
</body></html>
`, n, n, host, trapPathPrefix, 2*n, host, trapPathPrefix, 2*n+1)
	return Response{
		URL: url, Status: 200, MIME: "text/html; charset=utf-8",
		Body: []byte(body), ContentLength: len(body),
	}
}

// appendTrapped appends the rendered root page body to dst with the archive
// link added before its last </body>, or at its end without one.
func appendTrapped(dst, body []byte) []byte {
	i := bytes.LastIndex(body, []byte("</body>"))
	if i < 0 {
		i = len(body)
	}
	dst = append(append(dst, body[:i]...), trapEntryHTML...)
	return append(dst, body[i:]...)
}
