package sbcrawl

// Tests for the pipelined crawl engine: the speculative prefetch layer must
// be invisible in results (byte-identical crawls at every window width, for
// every strategy) and visible in wall-clock time (a latency-bound crawl
// speeds up when the window opens).

import (
	"reflect"
	"testing"
	"time"

	"sbcrawl/internal/fleet"
)

// allStrategies is the full Section 4.3 lineup, oracle strategies included
// (CrawlSite wires their ground truth).
var allStrategies = []Strategy{
	StrategySB, StrategySBOracle, StrategyBFS, StrategyDFS, StrategyRandom,
	StrategyFocused, StrategyTPOff, StrategyTRES, StrategyOmniscient,
}

// prefetchWidths is the determinism-gate sweep: off, two fixed windows,
// and the adaptive controller (whose window trajectory is timing-dependent
// — exactly why it must be in the gate).
var prefetchWidths = []int{0, 4, 16, PrefetchAuto}

// TestPrefetchEquivalence is the pipeline's determinism gate: for every
// strategy, CrawlSite with Prefetch ∈ {0, 4, 16, auto} must return
// byte-identical Results — targets in the same order, the same request
// count, the same progress curve point for point. Prefetching is a cache
// warm-up, never a behavior change, fixed and adaptive alike.
func TestPrefetchEquivalence(t *testing.T) {
	site, err := GenerateSite("cn", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := GenerateSite("cl", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range allStrategies {
		s := s
		t.Run(string(s), func(t *testing.T) {
			var sequential *Result
			for _, width := range prefetchWidths {
				res, err := CrawlSite(site, Config{Strategy: s, Seed: 2, Prefetch: width})
				if err != nil {
					t.Fatalf("prefetch=%d: %v", width, err)
				}
				if width == 0 {
					sequential = res
					continue
				}
				if !reflect.DeepEqual(sequential, res) {
					t.Errorf("prefetch=%d diverged from sequential engine:\nseq:  req=%d targets=%d curve=%d\npipe: req=%d targets=%d curve=%d",
						width, sequential.Requests, len(sequential.Targets), len(sequential.Curve),
						res.Requests, len(res.Targets), len(res.Curve))
				}
			}
		})
	}
	// Budget exhaustion is the trickiest wind-down path: speculative
	// fetches must never consume budget the engine didn't charge.
	t.Run("budgeted", func(t *testing.T) {
		for _, s := range allStrategies {
			var sequential *Result
			for _, width := range prefetchWidths {
				res, err := CrawlSite(budgeted, Config{Strategy: s, Seed: 7, MaxRequests: 40, Prefetch: width})
				if err != nil {
					t.Fatalf("%s prefetch=%d: %v", s, width, err)
				}
				if res.Requests > 40 {
					t.Errorf("%s prefetch=%d charged %d requests over the budget of 40", s, width, res.Requests)
				}
				if width == 0 {
					sequential = res
					continue
				}
				if !reflect.DeepEqual(sequential, res) {
					t.Errorf("%s prefetch=%d diverged under budget", s, width)
				}
			}
		}
	})
}

// TestPrefetchEquivalenceUnderLatency repeats the determinism gate with a
// real round-trip delay, so speculative fetches genuinely overlap the
// engine loop while results are compared.
func TestPrefetchEquivalenceUnderLatency(t *testing.T) {
	site, err := GenerateSite("ce", 0.005, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: StrategySB, Seed: 3, MaxRequests: 60, SimLatency: time.Millisecond}
	sequential, err := CrawlSite(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{8, PrefetchAuto} {
		cfg.Prefetch = width
		pipelined, err := CrawlSite(site, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sequential, pipelined) {
			t.Errorf("prefetch=%d crawl diverged from sequential under SimLatency", width)
		}
	}
}

// TestPrefetchPipelineSpeedup is the pipeline's reason to exist: on a
// latency-bound crawl (the paper's budgeted regime with realistic RTT), a
// prefetch window ≥ 8 must cut wall-clock time substantially. The engine's
// sequential loop pays one RTT per request; BFS hints are exact, so the
// pipeline should approach window-wide overlap. The acceptance bar is 2×;
// this asserts a conservative 1.5× so scheduler noise cannot flake CI.
func TestPrefetchPipelineSpeedup(t *testing.T) {
	site, err := GenerateSite("cl", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: StrategyBFS, MaxRequests: 80, SimLatency: 4 * time.Millisecond}

	crawl := func(prefetch int) (time.Duration, *Result) {
		c := cfg
		c.Prefetch = prefetch
		start := time.Now()
		res, err := CrawlSite(site, c)
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), res
	}
	seqTime, seqRes := crawl(0)
	pipeTime, pipeRes := crawl(8)
	autoTime, autoRes := crawl(PrefetchAuto)
	if !reflect.DeepEqual(seqRes, pipeRes) || !reflect.DeepEqual(seqRes, autoRes) {
		t.Fatal("speedup run diverged; determinism before speed")
	}
	speedup := float64(seqTime) / float64(pipeTime)
	autoSpeedup := float64(seqTime) / float64(autoTime)
	t.Logf("sequential %v, prefetch=8 %v (%.1fx), auto %v (%.1fx)",
		seqTime, pipeTime, speedup, autoTime, autoSpeedup)
	if speedup < 1.5 {
		t.Errorf("prefetch=8 speedup %.2fx < 1.5x on a latency-bound crawl (seq %v, pipelined %v)",
			speedup, seqTime, pipeTime)
	}
	// The adaptive window must hide latency without tuning: BFS hints are
	// exact, so the controller should ramp past the fixed width. The bar
	// stays conservative (same 1.5x) so scheduler noise cannot flake CI;
	// the fetch.prefetch_* metrics of `go run ./benchmark` track the rest.
	if autoSpeedup < 1.5 {
		t.Errorf("adaptive speedup %.2fx < 1.5x on a latency-bound crawl (seq %v, auto %v)",
			autoSpeedup, seqTime, autoTime)
	}
}

// TestPrefetchComposesWithFleet pins the two concurrency axes together:
// a parallel fleet of pipelined crawls returns the same per-site results as
// sequential unpipelined ones, with a fixed and with an adaptive window.
func TestPrefetchComposesWithFleet(t *testing.T) {
	codes := []string{"ab", "ce", "cl", "cn"}
	sites := make([]*Site, len(codes))
	for i, code := range codes {
		site, err := GenerateSite(code, 0.005, 1)
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = site
	}
	base := Config{Seed: 1, MaxRequests: 50}
	ref, err := CrawlSites(sites, base, FleetOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{8, PrefetchAuto} {
		piped := base
		piped.Prefetch = width
		got, err := CrawlSites(sites, piped, FleetOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Sites {
			if !reflect.DeepEqual(ref.Sites[i].Result, got.Sites[i].Result) {
				t.Errorf("site %s: workers=4+prefetch=%d diverged from workers=1+prefetch=0", codes[i], width)
			}
		}
	}
}

// TestSharedSpeculationEquivalence is the determinism gate for the
// fleet-shared speculation cache: a fleet crawling one Site from several
// entry points (the same Site repeated, mixed with distinct sites) with
// SharedSpeculation on must return per-site results byte-identical to
// solo sequential crawls — a shared cache hit serves exactly what the site
// would have served.
func TestSharedSpeculationEquivalence(t *testing.T) {
	cl, err := GenerateSite("cl", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := GenerateSite("cn", 0.005, 5)
	if err != nil {
		t.Fatal(err)
	}
	// cl appears three times: three crawls sharing one speculation cache.
	sites := []*Site{cl, cn, cl, cl}
	base := Config{Seed: 9, MaxRequests: 60, SimLatency: time.Millisecond}
	ref, err := CrawlSites(sites, base, FleetOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{8, PrefetchAuto} {
		shared := base
		shared.Prefetch = width
		got, err := CrawlSites(sites, shared, FleetOptions{Workers: 4, SharedSpeculation: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Sites {
			if !reflect.DeepEqual(ref.Sites[i].Result, got.Sites[i].Result) {
				t.Errorf("entry %d (%s): shared speculation at prefetch=%d diverged from solo sequential crawl",
					i, sites[i].Code(), width)
			}
		}
	}
	// The public aggregate must reflect the sharing. Workers=1 makes it
	// deterministic that the second cl crawl reuses the first one's
	// published fetches (its root GET at the very least).
	seqCfg := base
	seqCfg.Prefetch = 8
	seqShared, err := CrawlSites([]*Site{cl, cl}, seqCfg, FleetOptions{Workers: 1, SharedSpeculation: true})
	if err != nil {
		t.Fatal(err)
	}
	if sp := seqShared.Speculation; sp.Launched == 0 || sp.SharedHits == 0 {
		t.Errorf("fleet speculation stats not surfaced: %+v", sp)
	}

	// Sharing across every strategy, against per-site sequential truth.
	for _, s := range allStrategies {
		cfg := Config{Strategy: s, Seed: 2, MaxRequests: 40, Prefetch: 8}
		fleetRes, err := CrawlSites([]*Site{cl, cl}, cfg, FleetOptions{Workers: 2, SharedSpeculation: true})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for i, outcome := range fleetRes.Sites {
			solo := cfg
			solo.Seed = fleet.DeriveSeed(cfg.Seed, i)
			solo.Prefetch = 0
			want, err := CrawlSite(cl, solo)
			if err != nil {
				t.Fatalf("%s solo: %v", s, err)
			}
			if !reflect.DeepEqual(want, outcome.Result) {
				t.Errorf("%s entry %d: shared speculation diverged from sequential", s, i)
			}
		}
	}
}
