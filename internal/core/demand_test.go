package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sbcrawl/internal/bandit"
	"sbcrawl/internal/classify"
	"sbcrawl/internal/dom"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/frontier"
	"sbcrawl/internal/sitegen"
)

// TestSBHintsLeaveAwakeSetAlone: when the arm just played gave up its last
// link, Hints leaves it out of the bandit's choice without editing the awake
// set SelectNext built, so asking twice in one step gives the same guess.
func TestSBHintsLeaveAwakeSetAlone(t *testing.T) {
	auer := bandit.NewSleeping()
	r := &sbRun{front: frontier.NewGrouped(1), policy: auer}
	for _, a := range []int{3, 5, 7, 9} {
		auer.EnsureArm(a)
		r.front.Push(a, fmt.Sprintf("u%d", a))
	}
	r.front.Push(3, "u3b")
	auer.RecordSelection(5)
	auer.RecordReward(5, 10) // arm 5 leads, and holds one link
	if u, ok := r.SelectNext(); !ok || u != "u5" {
		t.Fatalf("SelectNext = %q, %v; want arm 5's only link", u, ok)
	}
	awake := slices.Clone(r.awake)
	first := slices.Clone(r.Hints(1))
	second := r.Hints(1)
	if !slices.Equal(r.awake, awake) {
		t.Errorf("Hints rewrote the awake set: %v, was %v", r.awake, awake)
	}
	if len(first) != 1 || !slices.Equal(first, second) {
		t.Errorf("two Hints in one step: %q then %q, want one and the same guess", first, second)
	}
}

// TestSBSelectAndHintAllocs: once its scratch has grown, an SB step's select
// stage, its select-time hint and the next-draw guess behind each demand
// batch allocate nothing.
func TestSBSelectAndHintAllocs(t *testing.T) {
	r := &sbRun{front: frontier.NewGrouped(1), policy: bandit.NewSleeping()}
	for a := 0; a < 40; a++ {
		r.policy.EnsureArm(a)
		for i := 0; i < 100; i++ {
			r.front.Push(a, fmt.Sprintf("u%d-%d", a, i))
		}
	}
	step := func() {
		if _, ok := r.SelectNext(); !ok {
			t.Fatal("frontier ran dry")
		}
		if len(r.Hints(1)) != 1 {
			t.Fatal("no select-time hint")
		}
		if _, ok := r.liveDraw(); !ok {
			t.Fatal("no next-draw guess")
		}
	}
	step()
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Errorf("select and hint allocate %.1f times per step, want 0", got)
	}
}

// newSpecRun builds an SB run over a pipelined env, for tests that drive its
// ingest stage directly. The pipeline is wound down at cleanup.
func newSpecRun(t *testing.T, env *Env, cfg SBConfig) *sbRun {
	t.Helper()
	r, err := NewSB(cfg).newRun(env)
	if err != nil {
		t.Fatal(err)
	}
	if r.eng.prefetcher == nil {
		t.Fatal("the env does not pipeline the crawl")
	}
	t.Cleanup(r.eng.close)
	return r
}

// demandGet is one demand GET as the engine issued it.
type demandGet struct {
	url      string
	launched int  // speculative fetches launched before it
	hit      bool // answered from speculation
}

// demandSpy sits between the engine and its Prefetcher and records every
// demand GET.
type demandSpy struct {
	fetch.Fetcher
	p    *fetch.Prefetcher
	gets []demandGet
}

func (s *demandSpy) Get(u string) (fetch.Response, error) {
	before := s.p.Stats()
	resp, err := s.p.Get(u)
	s.gets = append(s.gets, demandGet{url: u, launched: before.Launched, hit: s.p.Stats().Hits > before.Hits})
	return resp, err
}

func spyDemands(e *engine) *demandSpy {
	s := &demandSpy{Fetcher: e.prefetcher, p: e.prefetcher}
	e.fetcher = s
	return s
}

// pageOf is an HTML page at the site's root whose new links are urls.
func pageOf(site *sitegen.Site, urls []string) page {
	links := make([]dom.Link, len(urls))
	for i, u := range urls {
		links[i] = dom.Link{URL: u, TagPath: dom.TagPath{"html", "body", "a"}}
	}
	return page{FinalURL: site.Root(), Status: 200, IsHTML: true, Links: links}
}

// htmlURLs lists the site's HTML pages after the root.
func htmlURLs(site *sitegen.Site) []string {
	var out []string
	for _, pg := range site.Pages()[1:] {
		if pg.Kind == sitegen.KindHTML {
			out = append(out, pg.URL)
		}
	}
	return out
}

// TestPredictedTargetsIgnoreTunedWidth: the adaptive tuner sizes the
// policy's guesses, not the targets a page has already been seen to hold.
// With the tuned width driven down to 1, a page of k predicted targets has
// min(k, ceiling, room) of them launched before the loop demands the first,
// where the ceiling is fetch.AutoMaxWindow and the room is one less than the
// requests the budget has left.
func TestPredictedTargetsIgnoreTunedWidth(t *testing.T) {
	for _, tc := range []struct{ k, budget, want int }{
		{k: 10, want: 10},
		{k: 80, want: 80},
		{k: fetch.AutoMaxWindow + 16, want: fetch.AutoMaxWindow},
		{k: 10, budget: 6, want: 5},
	} {
		t.Run(fmt.Sprintf("k=%d/B=%d", tc.k, tc.budget), func(t *testing.T) {
			env, site := newTestEnv(t, "cn", 0.2, 4)
			env.Prefetch = PrefetchAuto
			env.MaxRequests = tc.budget
			targets := site.TargetURLs()
			if len(targets) < tc.k {
				t.Fatalf("site has %d targets, want %d", len(targets), tc.k)
			}
			r := newSpecRun(t, env, SBConfig{Oracle: true, Seed: 5})
			for misses := 1; r.eng.tuner.Window() > 1; misses++ {
				r.eng.tuner.Observe(fetch.PrefetchStats{Misses: misses})
			}
			r.eng.window = r.eng.tuner.Window()
			spy := spyDemands(r.eng)
			r.ingestPage(pageOf(site, targets[:tc.k]), -1, 0)
			if len(spy.gets) == 0 {
				t.Fatal("the page's targets were never demanded")
			}
			if got := spy.gets[0].launched; got != tc.want {
				t.Errorf("%d launched before the first demand, want %d", got, tc.want)
			}
		})
	}
}

// specCounter is a backend wrapper that tells the Prefetcher's own fetches
// from the engine's demand ones by the goroutine they run on.
type specCounter struct {
	next     fetch.Fetcher
	inFlight atomic.Int64
	peak     atomic.Int64
	heads    atomic.Int64 // speculative HEADs
}

func (c *specCounter) Get(u string) (fetch.Response, error) {
	defer c.track()()
	return c.next.Get(u)
}

func (c *specCounter) Head(u string) (fetch.Response, error) {
	if speculative() {
		c.heads.Add(1)
	}
	defer c.track()()
	return c.next.Head(u)
}

// track counts a speculative exchange in flight until the returned func runs.
func (c *specCounter) track() func() {
	if !speculative() {
		return func() {}
	}
	n := c.inFlight.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return func() { c.inFlight.Add(-1) }
}

// speculative reports whether the caller runs on a Prefetcher fetch
// goroutine.
func speculative() bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "(*Prefetcher).fetch") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestFixedWidthCapsSpeculation: with a fixed Env.Prefetch, the width is the
// cap on everything speculative, the batches of decided demands included.
func TestFixedWidthCapsSpeculation(t *testing.T) {
	env, _ := newTestEnv(t, "cn", 0.05, 4)
	counter := &specCounter{next: &fetch.Latency{Backend: env.Fetcher, Delay: time.Millisecond}}
	env.Fetcher = counter
	env.Prefetch = 2
	env.MaxRequests = 200
	res, err := NewSB(SBConfig{Seed: 5}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if peak := counter.peak.Load(); peak != 2 {
		t.Errorf("at most %d speculative fetches were in flight at once, want the width, 2 (%+v)", peak, *res.Spec)
	}
}

// TestRefitHintsNewTargets: when the classifier fits in the middle of a page
// (here its first fit, which ends the HEAD phase), the links it now calls
// targets are hinted before the loop reaches them.
func TestRefitHintsNewTargets(t *testing.T) {
	env, site := newTestEnv(t, "cn", 0.2, 4)
	env.Prefetch = 8
	r := newSpecRun(t, env, SBConfig{Seed: 5})
	targets, htmls := site.TargetURLs(), htmlURLs(site)
	if len(targets) < 40 || len(htmls) < 40 {
		t.Fatalf("site too small: %d targets, %d HTML pages", len(targets), len(htmls))
	}
	// Eight labels now; the page itself is the ninth and the HEAD of its
	// first link the tenth, which fits the first batch.
	for i := 0; i < 4; i++ {
		r.online.Observe(targets[i], classify.ClassTarget)
		r.online.Observe(htmls[i], classify.ClassHTML)
	}
	var links []string
	for i := 4; i < 20; i++ {
		links = append(links, htmls[i], targets[i])
	}
	spy := spyDemands(r.eng)
	r.ingestPage(pageOf(site, links), -1, 0)
	if r.online.InInitialPhase() || r.online.Refits() == 0 {
		t.Fatal("the classifier never fit")
	}
	onPage := make(map[string]bool)
	for _, u := range links[1:] {
		onPage[u] = true
	}
	demanded := 0
	for _, g := range spy.gets {
		if !onPage[g.url] {
			continue // a nested page's link
		}
		demanded++
		if !g.hit {
			t.Errorf("%s was demanded without having been hinted", g.url)
		}
	}
	if demanded == 0 {
		t.Fatal("the fitted classifier called no link a target; the test proves nothing")
	}
}

// TestWarmupHeadHintsStopAtFit: the HEAD probes hinted while the classifier
// labels by HEAD are at most the labels it still needs before its first fit,
// in one batch and over a whole crawl.
func TestWarmupHeadHintsStopAtFit(t *testing.T) {
	for _, fed := range []int{0, 7} {
		t.Run(fmt.Sprintf("labelled=%d", fed), func(t *testing.T) {
			env, site := newTestEnv(t, "cn", 0.2, 4)
			counter := &specCounter{next: env.Fetcher}
			env.Fetcher = counter
			env.Prefetch = fetch.AutoMaxWindow
			r := newSpecRun(t, env, SBConfig{Seed: 5})
			htmls := htmlURLs(site)
			for _, u := range htmls[:fed] {
				r.online.Observe(u, classify.ClassHTML)
			}
			need := r.online.LabelsToFit()
			r.speculate(nil, pageOf(site, htmls[fed:fed+30]).Links)
			r.eng.close()
			if got := int(counter.heads.Load()); got != need {
				t.Errorf("%d HEADs hinted, want the %d labels left to fit", got, need)
			}
		})
	}
	t.Run("crawl", func(t *testing.T) {
		env, _ := newTestEnv(t, "cn", 0.2, 4)
		counter := &specCounter{next: env.Fetcher}
		env.Fetcher = counter
		env.Prefetch = fetch.AutoMaxWindow
		env.MaxRequests = 300
		res, err := NewSB(SBConfig{Seed: 5}).Run(env)
		if err != nil {
			t.Fatal(err)
		}
		// Only the page on which the classifier fits leaves hinted probes
		// unasked, at most the labels it still needed when it hinted them:
		// beyond the charged HEADs, at most b.
		const b = 10
		if got := int(counter.heads.Load()); got > res.HeadRequests+b {
			t.Errorf("%d HEADs hinted for %d charged, want ≤ %d", got, res.HeadRequests, res.HeadRequests+b)
		}
	})
}
