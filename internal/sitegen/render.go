package sitegen

import (
	"fmt"
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

// withVariant stamps a section-template class into a zone wrapper's first
// class attribute, splitting the zone's tag path per site section.
func withVariant(open string, tpl int) string {
	return strings.Replace(open, `class="`, fmt.Sprintf(`class="sect-%d `, tpl), 1)
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

// renderHTML writes the page into a parked renderer's scratch and returns an
// exact-size copy of it.
func (s *Site) renderHTML(pg *Page) []byte {
	r := takeRenderer(s.seed*65_537 + int64(pg.ID))
	defer r.release()
	rng, b := r.rng, &r.buf
	sk := s.skin
	title := s.words(rng, 3)
	fmt.Fprintf(b, "<!DOCTYPE html>\n<html><head><title>%s — %s</title></head><body>\n",
		title, s.Profile.Name)
	if strings.Contains(sk.pageOpen, "%d") {
		fmt.Fprintf(b, sk.pageOpen, pg.ID)
	} else {
		b.WriteString(sk.pageOpen)
	}

	// Navigation zone.
	b.WriteString(sk.navOpen)
	for _, id := range pg.NavLinks {
		fmt.Fprintf(b, sk.navItem, s.href(id), s.words(rng, 1))
	}
	b.WriteString(sk.navClose)

	// Content zone: prose paragraphs with inline links (content, error,
	// redirect, external, media links all mingle here).
	b.WriteString(sk.contentOpen)
	fmt.Fprintf(b, "<h1>%s</h1>", title)
	for _, id := range pg.ContentLinks {
		fmt.Fprintf(b, sk.contentItem,
			s.words(rng, 4), s.href(id), s.words(rng, 2), s.words(rng, 3))
	}
	for _, u := range pg.ExternalLinks {
		fmt.Fprintf(b, sk.contentItem, s.words(rng, 2), u, "partner site", s.words(rng, 2))
	}
	for _, u := range pg.MediaLinks {
		fmt.Fprintf(b, sk.contentItem, s.words(rng, 2), u, "image", s.words(rng, 1))
	}
	// A little extra prose so pages have realistic text mass.
	fmt.Fprintf(b, "<p>%s.</p>", s.words(rng, 18))
	b.WriteString(sk.contentClose)

	// Portal zone: links to dataset hubs. The wrapper carries a section
	// template variant class: real sites style different sections with
	// different templates, so tag paths split by section — which is what
	// lets the agent tell rich catalogs from poor ones.
	if len(pg.PortalLinks) > 0 {
		b.WriteString(withVariant(sk.portalOpen, pg.TemplateID))
		for _, id := range pg.PortalLinks {
			fmt.Fprintf(b, sk.portalItem, s.href(id), s.portalAnchor(rng))
		}
		b.WriteString(sk.portalClose)
	}

	// Dataset zone: the hub's target links, also section-templated.
	if len(pg.DatasetLinks) > 0 {
		b.WriteString(withVariant(sk.datasetOpen, pg.TemplateID))
		for _, id := range pg.DatasetLinks {
			fmt.Fprintf(b, sk.datasetItem, s.href(id),
				s.downloadAnchor(rng, s.pages[id].MIME))
		}
		b.WriteString(sk.datasetClose)
	}

	// Pagination zone: catalog runs, stamped with the catalog's section
	// template so each catalog's pagination is its own tag-path group.
	if len(pg.PaginationLinks) > 0 {
		b.WriteString(withVariant(sk.pagingOpen, pg.TemplateID))
		for i, id := range pg.PaginationLinks {
			fmt.Fprintf(b, sk.pagingItem, s.href(id), fmt.Sprintf("page %d", i+2))
		}
		b.WriteString(sk.pagingClose)
	}

	b.WriteString(sk.pageClose)
	b.WriteString("</body></html>\n")
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	return out
}

func (s *Site) portalAnchor(rng *rand.Rand) string {
	options := []string{"open data", "data portal", "statistics catalog", "datasets",
		"donnees ouvertes", "catalogue", "datos abiertos", "toukei deta"}
	return options[rng.Intn(len(options))]
}

func (s *Site) href(id int) string {
	// Render site-internal links as absolute paths; the crawler resolves
	// them against the page URL (and a few stay absolute for variety).
	u := s.pages[id].URL
	if id%17 == 0 {
		return u // absolute URL form
	}
	return strings.TrimPrefix(u, "https://"+s.Profile.Host)
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
