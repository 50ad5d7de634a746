package webserver

import (
	"bytes"
	"fmt"
	"strings"

	"sbcrawl/internal/sitegen"
)

// Federation serves several generated sites as one multi-host website: an
// apex portal page links every member root, and each member is mounted on
// its own subdomain (s0.<domain>, s1.<domain>, …) of the federation apex.
// Every member HTML page additionally carries a deterministic footer with
// cross-host links (the portal, the next member's root, and the same path
// on the next member), so a crawl of the federation continuously discovers
// URLs on foreign hosts.
//
// Member content is translated, not copied: a request for a subdomain URL
// is mapped onto the member's canonical URL by prefix substitution, the
// member server answers, and canonical absolute URLs in HTML bodies and
// Location headers are rewritten back to the subdomain form. Target bodies
// pass through untouched. Head is Get minus the body, so HEAD headers
// always match the rewritten GET.
type Federation struct {
	domain    string
	portalURL string
	members   []*federationMember
	portal    []byte
	portalPg  *sitegen.Page
	targets   []string
}

type federationMember struct {
	server     *Server
	site       *sitegen.Site
	sub        string // "https://s<i>.<domain>"
	canonical  string // "https://" + site.Profile.Host
	canonicalB []byte // canonical, as rewrite searches bodies for it
	root       string // member root in subdomain form
}

// NewFederation mounts sites as subdomains of domain (e.g.
// "federation.test") behind a portal at https://www.<domain>/.
func NewFederation(domain string, sites []*sitegen.Site) *Federation {
	f := &Federation{
		domain:    domain,
		portalURL: "https://www." + domain + "/",
		portalPg:  &sitegen.Page{Kind: sitegen.KindHTML},
	}
	for i, site := range sites {
		m := &federationMember{
			server:    New(site),
			site:      site,
			sub:       fmt.Sprintf("https://s%d.%s", i, domain),
			canonical: "https://" + site.Profile.Host,
		}
		m.canonicalB = []byte(m.canonical)
		m.root = m.sub + strings.TrimPrefix(site.Root(), m.canonical)
		f.members = append(f.members, m)
	}
	var b bytes.Buffer
	b.WriteString("<html><head><title>federation portal</title></head><body><h1>Members</h1><ul>")
	for i, m := range f.members {
		fmt.Fprintf(&b, `<li><a href="%s">member %d</a></li>`, m.root, i)
	}
	b.WriteString("</ul></body></html>")
	f.portal = b.Bytes()
	for _, m := range f.members {
		for _, t := range m.site.TargetURLs() {
			f.targets = append(f.targets, m.translateOut(t))
		}
	}
	return f
}

// Root is the portal URL, the federation crawl's start point.
func (f *Federation) Root() string { return f.portalURL }

// PageCount is the total crawlable surface: the portal plus every member
// page.
func (f *Federation) PageCount() int {
	n := 1
	for _, m := range f.members {
		n += len(m.site.Pages())
	}
	return n
}

// TargetURLs lists every member target in subdomain form (OMNISCIENT's
// oracle feed).
func (f *Federation) TargetURLs() []string { return f.targets }

// Lookup resolves a federation URL to its ground-truth page: the synthetic
// portal page, or the member page behind a subdomain URL. Oracle/metric use
// only, like Server.Site.
func (f *Federation) Lookup(url string) (*sitegen.Page, bool) {
	if url == f.portalURL {
		return f.portalPg, true
	}
	_, pg, ok := f.resolve(url)
	return pg, ok
}

// resolve finds the member owning url and the member page behind it. The
// page's canonical URL is joined in a stack buffer, only to be looked up.
func (f *Federation) resolve(url string) (*federationMember, *sitegen.Page, bool) {
	for _, m := range f.members {
		if path, ok := strings.CutPrefix(url, m.sub); ok && strings.HasPrefix(path, "/") {
			var buf [128]byte
			pg, ok := m.site.LookupBytes(append(append(buf[:0], m.canonical...), path...))
			return m, pg, ok
		}
	}
	return nil, nil, false
}

// translateOut maps a member-canonical URL to its subdomain form.
func (m *federationMember) translateOut(url string) string {
	return m.sub + strings.TrimPrefix(url, m.canonical)
}

// Get performs an HTTP GET against the federation. The body is lent, as
// Server.Get's is, except the portal's, which every request shares.
func (f *Federation) Get(url string) Response { return f.respond(url, false) }

// Recycle implements fetch.Recycler as Server.Recycle does, for the bodies
// of the federation's GETs. The portal body is served to every request and
// is never parked.
func (f *Federation) Recycle(body []byte) {
	if len(body) > 0 && &body[0] == &f.portal[0] {
		return
	}
	recycleBody(body)
}

// Head performs an HTTP HEAD: the full rewritten Get minus the body, so
// ContentLength reflects the body a GET would actually transfer. A member
// target, passed through untouched, is not rendered (see Server.respond).
func (f *Federation) Head(url string) Response {
	resp := f.respond(url, true)
	resp.Body = nil
	return resp
}

// respond answers a request for url; head is Server.respond's. A member's
// HTML page is rewritten straight from the renderer's scratch into a lent
// buffer (see takeBody), and a HEAD only measures it.
func (f *Federation) respond(url string, head bool) Response {
	if url == f.portalURL {
		return Response{
			URL: url, Status: 200, MIME: htmlMIME,
			Body: f.portal, ContentLength: len(f.portal),
		}
	}
	m, pg, ok := f.resolve(url)
	if !ok {
		return Response{URL: url, Status: 404}
	}
	if pg.Kind == sitegen.KindHTML {
		resp := Response{URL: url, Status: 200, MIME: htmlMIME}
		m.site.ViewHTML(pg, func(body []byte) {
			resp.ContentLength = f.rewrittenLen(m, url, body)
			if !head {
				resp.Body = f.appendRewrite(takeBody(resp.ContentLength), m, url, body)
			}
		})
		return resp
	}
	resp := m.server.respondPage(url, pg, head)
	if resp.Location != "" && strings.HasPrefix(resp.Location, m.canonical) {
		resp.Location = m.translateOut(resp.Location)
	}
	return resp
}

// footer is the deterministic cross-host footer of the member page at url,
// in the pieces rewrite appends.
func (f *Federation) footer(m *federationMember, url string) [8]string {
	next := f.nextOf(m)
	return [...]string{
		`<footer><a href="`, f.portalURL,
		`">federation portal</a> <a href="`, next.root,
		`">next member</a> <a href="`, next.sub, strings.TrimPrefix(url, m.sub), // the mirror
		`">mirror</a></footer>`,
	}
}

// rewrittenLen is the length of rewrite(m, url, body), computed without
// building it.
func (f *Federation) rewrittenLen(m *federationMember, url string, body []byte) int {
	n := len(body) + bytes.Count(body, m.canonicalB)*(len(m.sub)-len(m.canonical))
	for _, p := range f.footer(m, url) {
		n += len(p)
	}
	return n
}

// appendRewrite appends to out the HTML body with its canonical absolute
// URLs mapped to subdomain form and the deterministic cross-host footer
// added, in one pass: rewrittenLen bytes, which out has room for when its
// caller sized it so.
func (f *Federation) appendRewrite(out []byte, m *federationMember, url string, body []byte) []byte {
	for {
		i := bytes.Index(body, m.canonicalB)
		if i < 0 {
			break
		}
		out = append(append(out, body[:i]...), m.sub...)
		body = body[i+len(m.canonicalB):]
	}
	out = append(out, body...)
	for _, p := range f.footer(m, url) {
		out = append(out, p...)
	}
	return out
}

func (f *Federation) nextOf(m *federationMember) *federationMember {
	for i, cand := range f.members {
		if cand == m {
			return f.members[(i+1)%len(f.members)]
		}
	}
	return f.members[0]
}

// String describes the federation for logs.
func (f *Federation) String() string {
	return fmt.Sprintf("federation(%s, %d members, %d pages)",
		f.domain, len(f.members), f.PageCount())
}
