package sitegen

import (
	"math/rand"
	"strconv"
	"strings"
)

// skin is a site-wide DOM template family. Each zone's wrapper markup fixes
// the tag paths its links are rendered under; distinct skins give distinct
// per-site structure, so the agent must learn each site from scratch
// (the paper's online, per-website learning argument).
type skin struct {
	// pageOpen may contain %d, replaced by the page ID when the profile
	// stamps unique IDs (the θ=0.95 pathology of Sec. 4.6).
	pageOpen, pageClose string
	navOpen, navClose   string
	navItem             string // %s href, %s anchor
	contentOpen         string
	contentClose        string
	contentItem         string // inline paragraph link
	portalOpen          string
	portalClose         string
	portalItem          string
	datasetOpen         string
	datasetClose        string
	datasetItem         string
	pagingOpen          string
	pagingClose         string
	pagingItem          string
}

// skins are the template families; a profile hashes onto one.
var skins = []skin{
	{ // gov
		pageOpen:     `<div id="page" class="site-wrapper">`,
		pageClose:    `</div>`,
		navOpen:      `<header class="site-header"><nav class="main-menu"><ul class="menu">`,
		navClose:     `</ul></nav></header>`,
		navItem:      `<li class="menu-item"><a href="%s">%s</a></li>`,
		contentOpen:  `<main id="main-content"><div class="region-content"><article class="node">`,
		contentClose: `</article></div></main>`,
		contentItem:  `<p>%s <a href="%s">%s</a> %s</p>`,
		portalOpen:   `<aside class="sidebar"><ul class="data-portal">`,
		portalClose:  `</ul></aside>`,
		portalItem:   `<li class="portal-entry"><a class="portal-link" href="%s">%s</a></li>`,
		datasetOpen:  `<section class="downloads-group"><ul class="datasets">`,
		datasetClose: `</ul></section>`,
		datasetItem:  `<li class="dataset-row"><a class="fr-link--download" href="%s">%s</a></li>`,
		pagingOpen:   `<nav class="pager"><ul class="pager-items">`,
		pagingClose:  `</ul></nav>`,
		pagingItem:   `<li class="pager-item"><a class="pager-link" href="%s">%s</a></li>`,
	},
	{ // portal
		pageOpen:     `<div id="wrapper">`,
		pageClose:    `</div>`,
		navOpen:      `<div id="groval_navi"><ul id="groval_menu">`,
		navClose:     `</ul></div>`,
		navItem:      `<li class="menu-item-has-children"><a href="%s">%s</a></li>`,
		contentOpen:  `<div class="container"><div class="row"><div class="col-md-9">`,
		contentClose: `</div></div></div>`,
		contentItem:  `<div class="teaser">%s <a href="%s">%s</a> %s</div>`,
		portalOpen:   `<div class="row"><div class="col-md-3"><div class="collections-portal">`,
		portalClose:  `</div></div></div>`,
		portalItem:   `<div class="collection-card"><a class="collection-link" href="%s">%s</a></div>`,
		datasetOpen:  `<div class="repository-container"><div class="body">`,
		datasetClose: `</div></div>`,
		datasetItem:  `<div class="resource"><p><a class="resource-download" href="%s">%s</a></p></div>`,
		pagingOpen:   `<div class="pagination-wrap">`,
		pagingClose:  `</div>`,
		pagingItem:   `<a class="page-next" href="%s">%s</a>`,
	},
	{ // cms
		pageOpen:     `<div class="dialog-off-canvas-main-canvas"><div class="layout-container">`,
		pageClose:    `</div></div>`,
		navOpen:      `<nav class="navbar"><ul class="nav">`,
		navClose:     `</ul></nav>`,
		navItem:      `<li class="nav-item"><a class="nav-link" href="%s">%s</a></li>`,
		contentOpen:  `<main id="main"><div class="region region-content"><div class="block-system-main-block">`,
		contentClose: `</div></div></main>`,
		contentItem:  `<p class="texte">%s <a href="%s">%s</a> %s</p>`,
		portalOpen:   `<div class="fr-container"><ul class="fr-sidemenu__list">`,
		portalClose:  `</ul></div>`,
		portalItem:   `<li class="fr-sidemenu__item"><a class="fr-sidemenu__link" href="%s">%s</a></li>`,
		datasetOpen:  `<section class="fr-downloads-group fr-downloads-group--multiple-links"><ul>`,
		datasetClose: `</ul></section>`,
		datasetItem:  `<li><a class="fr-link fr-link--download" href="%s">%s</a></li>`,
		pagingOpen:   `<nav class="fr-pagination"><ul class="fr-pagination__list">`,
		pagingClose:  `</ul></nav>`,
		pagingItem:   `<li><a class="fr-pagination__link" href="%s">%s</a></li>`,
	},
	{ // library
		pageOpen:     `<div class="container s-lib-side-borders">`,
		pageClose:    `</div>`,
		navOpen:      `<div class="row"><div class="col-md-12 top-nav"><ul class="breadcrumb">`,
		navClose:     `</ul></div></div>`,
		navItem:      `<li><a href="%s">%s</a></li>`,
		contentOpen:  `<div class="row"><div class="col-md-9"><div class="s-lg-tab-content">`,
		contentClose: `</div></div></div>`,
		contentItem:  `<div class="s-lib-box-content">%s <a href="%s">%s</a> %s</div>`,
		portalOpen:   `<div class="col-md-3"><div class="s-lg-col-boxes"><ul class="s-lg-link-list">`,
		portalClose:  `</ul></div></div>`,
		portalItem:   `<li class="s-lg-link-list-item"><a href="%s">%s</a></li>`,
		datasetOpen:  `<div class="s-lg-box-wrapper"><ul class="s-lg-link-list-data">`,
		datasetClose: `</ul></div>`,
		datasetItem:  `<li><a class="s-lg-data-link" href="%s">%s</a></li>`,
		pagingOpen:   `<div class="s-lg-pager">`,
		pagingClose:  `</div>`,
		pagingItem:   `<a class="s-lg-pager-next" href="%s">%s</a>`,
	},
}

// skinFor deterministically assigns a skin family to a profile; profiles
// with UniqueIDs get an ID-stamped page wrapper.
func skinFor(p Profile) skin {
	sk := skins[int(hashCode(p.Code))%len(skins)]
	if p.UniqueIDs {
		sk.pageOpen = `<div id="page-%d" class="site-wrapper">`
	}
	return sk
}

// RenderPage produces the response body for a page. HTML pages render their
// zones through the site's skin; targets render dataset bytes of the page's
// size with SDCount embedded statistics tables. Rendering is deterministic:
// the same page always produces the same bytes.
func (s *Site) RenderPage(pg *Page) []byte {
	switch pg.Kind {
	case KindHTML:
		return s.renderHTML(pg)
	case KindTarget:
		return s.renderTarget(pg)
	default:
		return nil
	}
}

// renderHTML returns an exact-size copy of the HTML page's body.
func (s *Site) renderHTML(pg *Page) (out []byte) {
	s.ViewHTML(pg, func(body []byte) {
		out = make([]byte, len(body))
		copy(out, body)
	})
	return out
}

// ViewHTML renders the HTML page pg into a parked renderer's scratch and
// calls view with it: the bytes RenderPage would return, without their
// copy. They are valid only until view returns; a caller that keeps any of
// them copies them. pg must be a KindHTML page.
func (s *Site) ViewHTML(pg *Page, view func(body []byte)) {
	r := takeRenderer(s.seed*65_537 + int64(pg.ID))
	defer r.release()
	if hint := htmlSizeHint(pg); hint > cap(r.buf) {
		r.buf = make([]byte, 0, hint)
	}
	r.buf = s.appendHTML(r.buf, r.rng, pg)
	view(r.buf)
}

// htmlSizeHint over-estimates the page's body from its links, so that its
// scratch is allocated once at about its size rather than regrown: a page
// renders a frame of under 1 KB and 120–143 bytes a link (il, ju, ed, cl,
// cn, ce, be and qa at scale 0.05 never exceed the hint, and outsized
// pages run ~1.25× under it).
func htmlSizeHint(pg *Page) int {
	links := len(pg.NavLinks) + len(pg.ContentLinks) + len(pg.ExternalLinks) + len(pg.MediaLinks) +
		len(pg.PortalLinks) + len(pg.DatasetLinks) + len(pg.PaginationLinks)
	return 1<<10 + 160*links
}

// appendHTML writes the page to b in one pass. The skin templates are
// consumed one segment at a time through lit, each verb's value written
// where fmt would have put it, in the order fmt's arguments were evaluated,
// so every draw from rng keeps its place in the stream.
func (s *Site) appendHTML(b []byte, rng *rand.Rand, pg *Page) []byte {
	sk := s.skin
	var tpl string // the rest of the item template being written
	b = append(b, "<!DOCTYPE html>\n<html><head><title>"...)
	title := len(b)
	b = s.appendWords(b, rng, 3)
	titleEnd := len(b)
	b = append(b, " — "...)
	b = append(b, s.Profile.Name...)
	b = append(b, "</title></head><body>\n"...)
	if before, after, ok := strings.Cut(sk.pageOpen, "%d"); ok {
		b = append(b, before...)
		b = strconv.AppendInt(b, int64(pg.ID), 10)
		b = append(b, after...)
	} else {
		b = append(b, sk.pageOpen...)
	}

	// Navigation zone.
	b = append(b, sk.navOpen...)
	for _, id := range pg.NavLinks {
		b, tpl = lit(b, sk.navItem)
		b = s.appendHref(b, id)
		b, tpl = lit(b, tpl)
		b = s.appendWords(b, rng, 1)
		b = append(b, tpl...)
	}
	b = append(b, sk.navClose...)

	// Content zone: prose paragraphs with inline links (content, error,
	// redirect, external, media links all mingle here).
	b = append(b, sk.contentOpen...)
	b = append(b, "<h1>"...)
	b = append(b, b[title:titleEnd]...)
	b = append(b, "</h1>"...)
	for _, id := range pg.ContentLinks {
		b, tpl = lit(b, sk.contentItem)
		b = s.appendWords(b, rng, 4)
		b, tpl = lit(b, tpl)
		b = s.appendHref(b, id)
		b, tpl = lit(b, tpl)
		b = s.appendWords(b, rng, 2)
		b, tpl = lit(b, tpl)
		b = s.appendWords(b, rng, 3)
		b = append(b, tpl...)
	}
	for _, u := range pg.ExternalLinks {
		b = s.appendProseLink(b, rng, u, "partner site", 2)
	}
	for _, u := range pg.MediaLinks {
		b = s.appendProseLink(b, rng, u, "image", 1)
	}
	// A little extra prose so pages have realistic text mass.
	b = append(b, "<p>"...)
	b = s.appendWords(b, rng, 18)
	b = append(b, ".</p>"...)
	b = append(b, sk.contentClose...)

	// Portal zone: links to dataset hubs. The wrapper carries a section
	// template variant class: real sites style different sections with
	// different templates, so tag paths split by section — which is what
	// lets the agent tell rich catalogs from poor ones.
	if len(pg.PortalLinks) > 0 {
		b = appendVariant(b, sk.portalOpen, pg.TemplateID)
		for _, id := range pg.PortalLinks {
			b, tpl = lit(b, sk.portalItem)
			b = s.appendHref(b, id)
			b, tpl = lit(b, tpl)
			b = append(b, s.portalAnchor(rng)...)
			b = append(b, tpl...)
		}
		b = append(b, sk.portalClose...)
	}

	// Dataset zone: the hub's target links, also section-templated.
	if len(pg.DatasetLinks) > 0 {
		b = appendVariant(b, sk.datasetOpen, pg.TemplateID)
		for _, id := range pg.DatasetLinks {
			b, tpl = lit(b, sk.datasetItem)
			b = s.appendHref(b, id)
			b, tpl = lit(b, tpl)
			b = s.appendDownloadAnchor(b, rng, s.pages[id].MIME)
			b = append(b, tpl...)
		}
		b = append(b, sk.datasetClose...)
	}

	// Pagination zone: catalog runs, stamped with the catalog's section
	// template so each catalog's pagination is its own tag-path group.
	if len(pg.PaginationLinks) > 0 {
		b = appendVariant(b, sk.pagingOpen, pg.TemplateID)
		for i, id := range pg.PaginationLinks {
			b, tpl = lit(b, sk.pagingItem)
			b = s.appendHref(b, id)
			b, tpl = lit(b, tpl)
			b = append(b, "page "...)
			b = strconv.AppendInt(b, int64(i+2), 10)
			b = append(b, tpl...)
		}
		b = append(b, sk.pagingClose...)
	}

	b = append(b, sk.pageClose...)
	return append(b, "</body></html>\n"...)
}

// lit appends tpl up to its first verb and returns what follows the verb. A
// skin template's verbs are %s and %d, two bytes each; a template with none
// is appended whole and lit returns "".
func lit(b []byte, tpl string) ([]byte, string) {
	i := strings.IndexByte(tpl, '%')
	if i < 0 {
		return append(b, tpl...), ""
	}
	return append(b, tpl[:i]...), tpl[i+2:]
}

// appendProseLink writes a content item for an off-site URL u: two words
// before the link, anchor as its text, n words after.
func (s *Site) appendProseLink(b []byte, rng *rand.Rand, u, anchor string, n int) []byte {
	b, tpl := lit(b, s.skin.contentItem)
	b = s.appendWords(b, rng, 2)
	b, tpl = lit(b, tpl)
	b = append(b, u...)
	b, tpl = lit(b, tpl)
	b = append(b, anchor...)
	b, tpl = lit(b, tpl)
	b = s.appendWords(b, rng, n)
	return append(b, tpl...)
}

// appendVariant writes a zone wrapper with the section-template class
// sect-<tpl> stamped into its first class attribute, splitting the zone's
// tag path per site section.
func appendVariant(b []byte, open string, tpl int) []byte {
	before, after, ok := strings.Cut(open, `class="`)
	if !ok {
		return append(b, open...)
	}
	b = append(b, before...)
	b = append(b, `class="sect-`...)
	b = strconv.AppendInt(b, int64(tpl), 10)
	b = append(b, ' ')
	return append(b, after...)
}

func (s *Site) portalAnchor(rng *rand.Rand) string {
	options := []string{"open data", "data portal", "statistics catalog", "datasets",
		"donnees ouvertes", "catalogue", "datos abiertos", "toukei deta"}
	return options[rng.Intn(len(options))]
}

// appendHref writes the link to page id. Site-internal links render as
// absolute paths, the URL less "https://" and the host, which the crawler
// resolves against the page URL; a few stay absolute for variety.
func (s *Site) appendHref(b []byte, id int) []byte {
	u := s.pages[id].URL
	if id%17 != 0 {
		if rest, ok := strings.CutPrefix(u, "https://"); ok {
			if path, ok := strings.CutPrefix(rest, s.Profile.Host); ok {
				u = path
			}
		}
	}
	return append(b, u...)
}

// SDMarker is the byte pattern marking one embedded statistics table inside
// a generated target; metrics count it to reproduce Table 7.
const SDMarker = "#SDTABLE"

// renderTarget writes the target into one slice allocated at its SizeB: the
// header and statistics tables, then filler rows, cut at SizeB.
func (s *Site) renderTarget(pg *Page) []byte {
	r := takeRenderer(s.seed*131_071 + int64(pg.ID))
	defer r.release()
	rng := r.rng
	out := make([]byte, 0, pg.SizeB)
	switch {
	case pg.MIME == "text/csv":
		out = fill(out, "indicator,region,year,value\n")
	case pg.MIME == "application/pdf":
		out = fill(out, "%PDF-1.4\n")
	case pg.MIME == "application/json":
		out = fill(out, "{\"dataset\":[\n")
	default:
		out = fill(out, "PK\x03\x04") // zip-ish magic for archive/sheet types
	}
	// Embedded statistics tables, one line at a time through line.
	var line [96]byte
	for k := 0; k < pg.SDCount; k++ {
		l := append(line[:0], SDMarker+" "...)
		l = strconv.AppendInt(l, int64(k), 10)
		out = fill(out, append(l, '\n'))
		rows := 5 + rng.Intn(10)
		for range rows {
			l = append(line[:0], "metric-"...)
			l = strconv.AppendInt(l, int64(rng.Intn(40)), 10)
			l = append(l, ",region-"...)
			l = strconv.AppendInt(l, int64(rng.Intn(20)), 10)
			l = append(l, ',')
			l = strconv.AppendInt(l, int64(1990+rng.Intn(35)), 10)
			l = append(l, ',')
			l = strconv.AppendFloat(l, rng.Float64()*1e6, 'f', 2, 64)
			out = fill(out, append(l, '\n'))
		}
	}
	// Pad deterministically to the page's size.
	filler := append(line[:0], "row,"...)
	filler = strconv.AppendInt(filler, int64(pg.ID), 10)
	filler = append(filler, ',')
	filler = strconv.AppendInt(filler, s.seed, 10)
	filler = append(filler, ",filler-data-values\n"...)
	for len(out) < pg.SizeB {
		out = fill(out, filler)
	}
	return out
}

// fill appends as much of p as out has room for: a target is cut at its
// size, never grown past it.
func fill[T string | []byte](out []byte, p T) []byte {
	return append(out, p[:min(len(p), cap(out)-len(out))]...)
}
