package sitegen

import (
	"bytes"
	"math"
	"net/url"
	"path"
	"strings"
	"testing"
	"testing/quick"

	"sbcrawl/internal/classify"
	"sbcrawl/internal/dom"
	"sbcrawl/internal/urlutil"
)

func testSite(code string, scale float64, seed int64) *Site {
	p, ok := ProfileByCode(code)
	if !ok {
		panic("unknown profile " + code)
	}
	return Generate(Config{Profile: p, Scale: scale, Seed: seed})
}

func TestProfileTableMatchesPaper(t *testing.T) {
	if len(Profiles) != 18 {
		t.Fatalf("got %d profiles, want 18 (Table 1)", len(Profiles))
	}
	fc := FullyCrawledCodes()
	if len(fc) != 11 {
		t.Errorf("fully crawled sites = %v, want the 11 of Sec. 4.4", fc)
	}
	if len(Figure4Codes) != 10 || len(Table7Codes) != 7 {
		t.Error("figure/table site lists have wrong sizes")
	}
	for _, p := range Profiles {
		if p.TargetFrac <= 0 || p.TargetFrac >= 1 {
			t.Errorf("%s: TargetFrac %v out of (0,1)", p.Code, p.TargetFrac)
		}
		if p.HubFrac <= 0 || p.HubFrac >= 1 {
			t.Errorf("%s: HubFrac %v out of (0,1)", p.Code, p.HubFrac)
		}
		if len(p.Languages) == 0 {
			t.Errorf("%s: no languages", p.Code)
		}
		if p.Multilingual != (len(p.Languages) > 1) {
			t.Errorf("%s: multilingual flag inconsistent with languages", p.Code)
		}
	}
	// The specific target-density extremes the paper calls out.
	cl, _ := ProfileByCode("cl")
	if math.Abs(cl.TargetFrac-0.6678) > 1e-4 {
		t.Errorf("cl density = %v, want 66.78%%", cl.TargetFrac)
	}
	in, _ := ProfileByCode("in")
	if math.Abs(in.TargetFrac-0.0249) > 1e-4 {
		t.Errorf("in density = %v, want 2.49%%", in.TargetFrac)
	}
	ed, _ := ProfileByCode("ed")
	if !ed.UniqueIDs {
		t.Error("ed must stamp unique IDs (the θ=0.95 OOM pathology)")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := testSite("cl", 0.01, 7)
	b := testSite("cl", 0.01, 7)
	if len(a.Pages()) != len(b.Pages()) {
		t.Fatalf("page counts differ: %d vs %d", len(a.Pages()), len(b.Pages()))
	}
	for i := range a.Pages() {
		pa, pb := a.PageByID(i), b.PageByID(i)
		if pa.URL != pb.URL || pa.Kind != pb.Kind || pa.SizeB != pb.SizeB {
			t.Fatalf("page %d differs between identical-seed generations", i)
		}
	}
	if !bytes.Equal(a.RenderPage(a.PageByID(0)), b.RenderPage(b.PageByID(0))) {
		t.Error("rendering is not deterministic")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := testSite("cl", 0.01, 1)
	b := testSite("cl", 0.01, 2)
	same := 0
	n := len(a.Pages())
	if len(b.Pages()) < n {
		n = len(b.Pages())
	}
	for i := 0; i < n; i++ {
		if a.PageByID(i).URL == b.PageByID(i).URL {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical sites")
	}
}

func TestStatsApproximateProfile(t *testing.T) {
	for _, code := range []string{"cl", "be", "nc"} {
		site := testSite(code, 0.02, 3)
		st := site.ComputeStats()
		p := site.Profile
		if st.Available < 30 {
			t.Fatalf("%s: only %d available pages", code, st.Available)
		}
		density := float64(st.Targets) / float64(st.Available)
		if math.Abs(density-p.TargetFrac) > 0.15 {
			t.Errorf("%s: target density %.3f, profile wants %.3f", code, density, p.TargetFrac)
		}
		if st.TargetDepthMean <= 0 {
			t.Errorf("%s: target depth mean %v must be positive", code, st.TargetDepthMean)
		}
		// Every hub fraction within loose tolerance of profile.
		hubPct := st.HTMLToTargetPct / 100
		if hubPct <= 0 {
			t.Errorf("%s: no target-linking pages at all", code)
		}
		_ = hubPct
	}
}

func TestAllPagesReachable(t *testing.T) {
	site := testSite("cn", 0.02, 5)
	st := site.ComputeStats()
	want := 0
	for _, p := range site.Pages() {
		if p.Kind == KindHTML || p.Kind == KindTarget {
			want++
		}
	}
	if st.Available != want {
		t.Errorf("reachable 2xx pages = %d, want all %d (generator must keep the site connected)",
			st.Available, want)
	}
}

func TestURLsAreUniqueAndInScope(t *testing.T) {
	site := testSite("ju", 0.02, 9)
	scope, err := urlutil.NewScope(site.Root())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range site.Pages() {
		if p.URL == "" {
			t.Fatalf("page %d has no URL", p.ID)
		}
		if seen[p.URL] {
			t.Fatalf("duplicate URL %q", p.URL)
		}
		seen[p.URL] = true
		if !scope.Contains(p.URL) {
			t.Errorf("page URL %q out of site scope", p.URL)
		}
	}
}

func TestExtensionlessTargetFraction(t *testing.T) {
	site := testSite("il", 0.001, 11)
	total, extless := 0, 0
	for _, p := range site.Pages() {
		if p.Kind != KindTarget {
			continue
		}
		total++
		if u, err := url.Parse(p.URL); err != nil || path.Ext(u.Path) == "" {
			extless++
		}
	}
	if total == 0 {
		t.Fatal("no targets generated")
	}
	frac := float64(extless) / float64(total)
	if math.Abs(frac-site.Profile.ExtensionlessTargets) > 0.2 {
		t.Errorf("extension-less fraction %.2f, profile wants %.2f", frac, site.Profile.ExtensionlessTargets)
	}
}

func TestRenderedHTMLParsesAndLinksResolve(t *testing.T) {
	site := testSite("be", 0.01, 13)
	pages := site.Pages()
	checked := 0
	for _, p := range pages {
		if p.Kind != KindHTML || checked > 40 {
			continue
		}
		checked++
		body := site.RenderPage(p)
		links := dom.ExtractLinksAppend(nil, body)
		wantMin := len(p.outLinks()) // internal links at least
		if len(links) < wantMin {
			t.Fatalf("page %d: extracted %d links, generator placed ≥ %d", p.ID, len(links), wantMin)
		}
	}
	if checked == 0 {
		t.Fatal("no HTML pages checked")
	}
}

func TestHubPagesCarryDatasetTagPath(t *testing.T) {
	site := testSite("nc", 0.01, 17)
	var hub *Page
	for _, p := range site.Pages() {
		if p.IsHub && len(p.DatasetLinks) > 0 {
			hub = p
			break
		}
	}
	if hub == nil {
		t.Fatal("no hub generated")
	}
	links := dom.ExtractLinksAppend(nil, site.RenderPage(hub))
	datasetURL := site.PageByID(hub.DatasetLinks[0]).URL
	found := false
	for _, l := range links {
		full := l.URL
		if !strings.HasPrefix(full, "http") {
			full = "https://" + site.Profile.Host + full
		}
		if full == datasetURL {
			found = true
			// The dataset zone must use a distinctive tag path (this is
			// hypothesis (ii) of the paper).
			path := l.TagPath.String()
			if !strings.Contains(path, "data") && !strings.Contains(path, "download") &&
				!strings.Contains(path, "resource") && !strings.Contains(path, "s-lg") {
				t.Errorf("dataset link path %q has no recognizable dataset zone", path)
			}
		}
	}
	if !found {
		t.Error("hub page does not render its dataset link")
	}
}

func TestTagPathConsistencyWithinZone(t *testing.T) {
	// Hypothesis (i): links in the same zone of the same site section share
	// tag paths across pages — one dataset path per catalog section, not
	// one per page.
	site := testSite("is", 0.002, 19)
	pathsBySection := map[int]map[string]int{}
	for _, p := range site.Pages() {
		if !p.IsHub {
			continue
		}
		links := dom.ExtractLinksAppend(nil, site.RenderPage(p))
		for _, l := range links {
			for _, dl := range p.DatasetLinks {
				full := l.URL
				if !strings.HasPrefix(full, "http") {
					full = "https://" + site.Profile.Host + full
				}
				if full == site.PageByID(dl).URL {
					if pathsBySection[p.TemplateID] == nil {
						pathsBySection[p.TemplateID] = map[string]int{}
					}
					pathsBySection[p.TemplateID][l.TagPath.String()]++
				}
			}
		}
	}
	if len(pathsBySection) == 0 {
		t.Fatal("no dataset links found")
	}
	for section, paths := range pathsBySection {
		if len(paths) != 1 {
			t.Errorf("section %d uses %d distinct dataset tag paths, want exactly 1: %v",
				section, len(paths), paths)
		}
	}
}

func TestUniqueIDsSkinProducesDistinctPaths(t *testing.T) {
	site := testSite("ed", 0.001, 23)
	a := site.RenderPage(site.PageByID(1))
	b := site.RenderPage(site.PageByID(2))
	pa := dom.ExtractLinksAppend(nil, a)
	pb := dom.ExtractLinksAppend(nil, b)
	if len(pa) == 0 || len(pb) == 0 {
		t.Fatal("no links")
	}
	if !strings.Contains(pa[0].TagPath.String(), "#page-1") {
		t.Errorf("ed pages must stamp unique ids, got %q", pa[0].TagPath)
	}
	if strings.Contains(pb[0].TagPath.String(), "#page-1") {
		t.Error("distinct pages must get distinct stamped ids")
	}
}

func TestTargetBodiesMatchSizeAndSDCount(t *testing.T) {
	site := testSite("be", 0.01, 29)
	for _, p := range site.Pages() {
		if p.Kind != KindTarget {
			continue
		}
		body := site.RenderPage(p)
		if len(body) != p.SizeB {
			t.Fatalf("target %d body %d bytes, want %d", p.ID, len(body), p.SizeB)
		}
		got := bytes.Count(body, []byte(SDMarker))
		if got < p.SDCount {
			// Markers may be truncated only if the size budget is tiny.
			if p.SizeB > 4096 {
				t.Errorf("target %d: %d SD markers in body, spec says %d", p.ID, got, p.SDCount)
			}
		}
	}
}

func TestSDYieldApproximatesTable7(t *testing.T) {
	site := testSite("is", 0.01, 31) // is: 93% yield
	withSD, total := 0, 0
	for _, p := range site.Pages() {
		if p.Kind != KindTarget {
			continue
		}
		total++
		if p.SDCount > 0 {
			withSD++
		}
	}
	if total < 50 {
		t.Skip("too few targets at this scale")
	}
	yield := float64(withSD) / float64(total)
	if math.Abs(yield-0.93) > 0.12 {
		t.Errorf("SD yield %.2f, want ≈ 0.93 (Table 7)", yield)
	}
}

func TestErrorAndRedirectPages(t *testing.T) {
	site := testSite("ed", 0.005, 37)
	st := site.ComputeStats()
	if st.ErrorPages == 0 {
		t.Error("no error pages generated")
	}
	if st.Redirects == 0 {
		t.Error("no redirects generated")
	}
	for _, p := range site.Pages() {
		switch p.Kind {
		case KindError:
			if p.Status != 404 && p.Status != 500 {
				t.Errorf("error page status %d", p.Status)
			}
		case KindRedirect:
			if p.Status != 301 {
				t.Errorf("redirect status %d", p.Status)
			}
			if p.RedirectTo < 0 || p.RedirectTo >= len(site.Pages()) {
				t.Errorf("redirect destination %d out of range", p.RedirectTo)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	site := testSite("qa", 0.01, 41)
	root, ok := site.Lookup(site.Root())
	if !ok || root.ID != 0 {
		t.Fatal("root lookup failed")
	}
	if _, ok := site.Lookup("https://elsewhere.org/x"); ok {
		t.Error("foreign URL must not resolve")
	}
}

func TestTargetURLsAndOracle(t *testing.T) {
	site := testSite("qa", 0.01, 43)
	urls := site.TargetURLs()
	if len(urls) == 0 {
		t.Fatal("no targets")
	}
	class, _ := Oracles(site.Lookup)
	for _, u := range urls {
		if class(u) != classify.ClassTarget {
			t.Errorf("oracle class of %q = %d for a target URL", u, class(u))
		}
	}
	if class(site.Root()) == classify.ClassTarget {
		t.Error("root must not be a target")
	}
	if site.TotalTargetBytes() <= 0 {
		t.Error("total target bytes must be positive")
	}
}

// Property: generation never panics and always yields a connected site with
// at least one target, across profiles, seeds and scales.
func TestGenerateRobustnessProperty(t *testing.T) {
	f := func(seed int64, profIdx uint8, scaleRaw uint8) bool {
		p := Profiles[int(profIdx)%len(Profiles)]
		scale := 0.0005 + float64(scaleRaw%20)*0.0005
		site := Generate(Config{Profile: p, Scale: scale, Seed: seed})
		st := site.ComputeStats()
		return st.Targets >= 3 && st.Available > 0 && st.HTMLPages > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TotalTargetBytes sums all target sizes (denominator of the Table 3
// volume metric).
func (s *Site) TotalTargetBytes() int64 {
	var total int64
	for _, p := range s.pages {
		if p.Kind == KindTarget {
			total += int64(p.SizeB)
		}
	}
	return total
}
