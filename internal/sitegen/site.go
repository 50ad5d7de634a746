package sitegen

import (
	"math"

	"sbcrawl/internal/classify"
)

// Root returns the crawl-start URL of the site.
func (s *Site) Root() string { return s.pages[0].URL }

// Pages returns all generated pages (HTML, targets, errors, redirects).
func (s *Site) Pages() []*Page { return s.pages }

// Lookup resolves a URL to its page.
func (s *Site) Lookup(url string) (*Page, bool) {
	id, ok := s.index[url]
	if !ok {
		return nil, false
	}
	return s.pages[id], true
}

// LookupBytes is Lookup of a URL held as bytes; it builds no string.
func (s *Site) LookupBytes(url []byte) (*Page, bool) {
	id, ok := s.index[string(url)]
	if !ok {
		return nil, false
	}
	return s.pages[id], true
}

// PageByID returns the page with the given ID.
func (s *Site) PageByID(id int) *Page { return s.pages[id] }

// TargetURLs returns the URLs of all targets, the ground truth for the
// OMNISCIENT baseline and the 90%-recall metrics.
func (s *Site) TargetURLs() []string {
	var out []string
	for _, p := range s.pages {
		if p.Kind == KindTarget {
			out = append(out, p.URL)
		}
	}
	return out
}

// Oracles builds the ground truth the oracle strategies consult, over a
// lookup of a URL's page: class is the page's classify class (HTML, target,
// or neither for an error, a redirect or an unknown URL), and benefit its
// number of dataset links.
func Oracles(lookup func(url string) (*Page, bool)) (class, benefit func(url string) int) {
	class = func(u string) int {
		pg, ok := lookup(u)
		if !ok {
			return classify.ClassNeither
		}
		switch pg.Kind {
		case KindHTML:
			return classify.ClassHTML
		case KindTarget:
			return classify.ClassTarget
		default:
			return classify.ClassNeither
		}
	}
	benefit = func(u string) int {
		pg, ok := lookup(u)
		if !ok {
			return 0
		}
		return len(pg.DatasetLinks)
	}
	return class, benefit
}

// outLinks returns every outgoing link of a page in rendering order.
func (p *Page) outLinks() []int {
	out := make([]int, 0,
		len(p.NavLinks)+len(p.ContentLinks)+len(p.PortalLinks)+
			len(p.DatasetLinks)+len(p.PaginationLinks))
	out = append(out, p.NavLinks...)
	out = append(out, p.ContentLinks...)
	out = append(out, p.PortalLinks...)
	out = append(out, p.DatasetLinks...)
	out = append(out, p.PaginationLinks...)
	return out
}

// Stats summarizes a site the way Table 1 does.
type Stats struct {
	Available       int     // reachable 2xx pages (HTML + targets)
	HTMLPages       int     // reachable HTML pages
	Targets         int     // reachable targets
	HTMLToTargetPct float64 // % of HTML pages linking to ≥1 target
	TargetSizeMean  float64 // bytes
	TargetSizeStd   float64 // bytes
	TargetDepthMean float64 // BFS link depth
	TargetDepthStd  float64
	ErrorPages      int
	Redirects       int
}

// ComputeStats walks the real link structure from the root (resolving
// redirects as a browser would) and measures the Table 1 characteristics.
func (s *Site) ComputeStats() Stats {
	n := len(s.pages)
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		pg := s.pages[u]
		if pg.Kind != KindHTML {
			continue
		}
		for _, v := range pg.outLinks() {
			w := s.pages[v]
			// Resolve redirect chains (bounded).
			for hops := 0; w.Kind == KindRedirect && hops < 10; hops++ {
				if depth[w.ID] < 0 {
					depth[w.ID] = depth[u] + 1
				}
				w = s.pages[w.RedirectTo]
			}
			if depth[w.ID] < 0 {
				depth[w.ID] = depth[u] + 1
				queue = append(queue, w.ID)
			}
		}
	}

	var st Stats
	var sizeSum, sizeSq float64
	var depthSum, depthSq float64
	hubCount := 0
	for _, pg := range s.pages {
		switch pg.Kind {
		case KindError:
			st.ErrorPages++
			continue
		case KindRedirect:
			st.Redirects++
			continue
		}
		if depth[pg.ID] < 0 {
			continue // unreachable
		}
		st.Available++
		if pg.Kind == KindHTML {
			st.HTMLPages++
			if len(pg.DatasetLinks) > 0 {
				hubCount++
			}
			continue
		}
		st.Targets++
		sz := float64(pg.SizeB)
		sizeSum += sz
		sizeSq += sz * sz
		d := float64(depth[pg.ID])
		depthSum += d
		depthSq += d * d
	}
	if st.HTMLPages > 0 {
		st.HTMLToTargetPct = 100 * float64(hubCount) / float64(st.HTMLPages)
	}
	if st.Targets > 0 {
		nT := float64(st.Targets)
		st.TargetSizeMean = sizeSum / nT
		st.TargetSizeStd = math.Sqrt(maxf(sizeSq/nT-st.TargetSizeMean*st.TargetSizeMean, 0))
		st.TargetDepthMean = depthSum / nT
		st.TargetDepthStd = math.Sqrt(maxf(depthSq/nT-st.TargetDepthMean*st.TargetDepthMean, 0))
	}
	return st
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
