package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"sbcrawl/internal/classify"
	"sbcrawl/internal/fetch"
)

// stripDiagnostics drops the wall-clock-dependent speculation counters so
// Results can be compared for the determinism that matters.
func stripDiagnostics(r *Result) *Result {
	c := *r
	c.Spec = nil
	return &c
}

// TestSBHintsArePure is the gate on SB's predictive speculation: a crawl
// whose next-draw hint (sbRun.Hints: AUER scoring, Grouped.PeekFrom) and
// in-page target prediction (predictTargets: feature extraction, Guess) run
// at every step must return the Result of the sequential crawl, where
// neither ever runs — for the oracle, for every online model, and for both
// feature sets (URL_CONT is where linkContext still renders the tag path).
func TestSBHintsArePure(t *testing.T) {
	cfgs := []SBConfig{{Oracle: true}, {Features: classify.URLContent}, {RawReward: true}}
	for _, model := range []string{"LR", "SVM", "NB", "PA"} {
		cfgs = append(cfgs, SBConfig{Model: model})
	}
	for _, cfg := range cfgs {
		cfg.Seed = 5
		name := fmt.Sprintf("oracle=%v/model=%s/%v/raw=%v", cfg.Oracle, cfg.Model, cfg.Features, cfg.RawReward)
		t.Run(name, func(t *testing.T) {
			run := func(prefetch int) *Result {
				env, _ := newTestEnv(t, "cn", 0.02, 4)
				env.MaxRequests = 150
				env.Prefetch = prefetch
				res, err := NewSB(cfg).Run(env)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := run(0)
			for _, prefetch := range []int{1, 8, PrefetchAuto} {
				got := run(prefetch)
				if got.Spec == nil || got.Spec.Launched == 0 {
					t.Fatalf("Prefetch=%d: no speculation ran (%+v), the test proves nothing", prefetch, got.Spec)
				}
				if !reflect.DeepEqual(stripDiagnostics(ref), stripDiagnostics(got)) {
					t.Errorf("Prefetch=%d diverged from the sequential crawl", prefetch)
				}
			}
		})
	}
}

// TestSBSpeculationHits pins that SB's hints are what the loop then asks
// for. The bounds are loose on purpose (a 2 ms crawl of this site hits about
// five times in six): most GETs must find their response hinted, and few
// hinted fetches may go unconsumed.
func TestSBSpeculationHits(t *testing.T) {
	env, _ := newTestEnv(t, "cn", 0.1, 4)
	env.MaxRequests = 250
	env.Prefetch = 8
	res, err := NewSB(SBConfig{Seed: 5}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Spec
	if res.Requests != 250 {
		t.Fatalf("crawl spent %d requests, want the full budget of 250", res.Requests)
	}
	if sp.Hits < sp.Misses {
		t.Errorf("Hits %d < Misses %d: %+v", sp.Hits, sp.Misses, *sp)
	}
	if wasted, limit := sp.Launched-sp.Hits-sp.HeadHits, res.Requests*15/100; wasted > limit {
		t.Errorf("%d speculative fetches went unconsumed, want ≤ %d: %+v", wasted, limit, *sp)
	}
}

// countingFetcher counts the exchanges that reach the backend.
type countingFetcher struct {
	next  fetch.Fetcher
	calls atomic.Int64
}

func (c *countingFetcher) Get(u string) (fetch.Response, error) {
	c.calls.Add(1)
	return c.next.Get(u)
}

func (c *countingFetcher) Head(u string) (fetch.Response, error) {
	c.calls.Add(1)
	return c.next.Head(u)
}

// TestSpeculationRespectsBudget pins the wind-down clamp on every strategy.
// What a strategy wastes mid-crawl depends on how good its hints are, so the
// budgets here are smaller than the window: nothing but the clamp keeps such
// a crawl from launching a full window per step. With r requests left a
// batch is at most r−1 fetches, so a crawl of B requests launches at most
// B(B−1)/2 and the backend sees at most B plus that — under B + window, where
// the unclamped engine rendered a window of pages nobody was charged for.
func TestSpeculationRespectsBudget(t *testing.T) {
	const window = 16
	for _, budget := range []int{1, 2, 3, 4, 6} {
		for _, c := range allCrawlers(3) {
			t.Run(fmt.Sprintf("%s/B=%d", c.Name(), budget), func(t *testing.T) {
				calls, res := countedCrawl(t, c, budget, window)
				if limit := res.Requests + budget*(budget-1)/2; calls > limit {
					t.Errorf("%d backend exchanges for %d charged requests, want ≤ %d (%+v)", calls, res.Requests, limit, *res.Spec)
				}
			})
		}
	}
	// Exact hints are all consumed, so on a long crawl what BFS and
	// OMNISCIENT waste is wind-down waste alone (a redirect hop in the last
	// steps can strand a hinted page, hence not zero).
	for _, c := range []Crawler{NewBFS(), NewOmniscient()} {
		t.Run(c.Name()+"/B=120", func(t *testing.T) {
			if calls, res := countedCrawl(t, c, 120, 8); calls > res.Requests+2 {
				t.Errorf("%d backend exchanges for %d charged requests: exact hints should waste next to nothing (%+v)", calls, res.Requests, *res.Spec)
			}
		})
	}
}

// countedCrawl runs the crawler over a budgeted, pipelined Env and returns
// how many exchanges reached the backend.
func countedCrawl(t *testing.T, c Crawler, budget, window int) (int, *Result) {
	env, _ := newTestEnv(t, "cn", 0.05, 4)
	counter := &countingFetcher{next: env.Fetcher}
	env.Fetcher = counter
	env.MaxRequests = budget
	env.Prefetch = window
	res, err := c.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	return int(counter.calls.Load()), res
}

// TestPartitionsOnlyWidenTheWindow pins the one speculation window under
// the one budget clamp (the name is from the deleted Partitions knob, which
// only ever widened that window). Over a latency-bound backend (so
// speculation really runs ahead of the loop) a budgeted crawl leaves few
// backend exchanges uncharged — over the whole crawl at most one window of
// 8: BFS hints its exact pop order and wastes nothing but what is in flight
// when the budget ends, while SB's next-draw guesses that miss stay
// unconsumed at any width (6 on this crawl) — nothing at all once the budget
// has no request left to consume a speculative response, and nothing when
// Prefetch is 0, which is a sequential crawl. A second crawler sweeping the
// site beside the loop fails the first bound on SB and the second on every
// strategy.
func TestPartitionsOnlyWidenTheWindow(t *testing.T) {
	for _, tc := range []struct {
		budget, prefetch, window int
	}{
		{budget: 120, prefetch: 0, window: 0},
		{budget: 120, prefetch: 2, window: 8},
		{budget: 120, prefetch: 8, window: 8},
		{budget: 2, prefetch: PrefetchAuto, window: 1}, // specRoom: 1 at the first step, 0 at the second
		{budget: 1, prefetch: 0, window: 0},            // sequential
		{budget: 1, prefetch: PrefetchAuto, window: 0}, // specRoom is 0 from the start
	} {
		for _, c := range []Crawler{NewSB(SBConfig{Seed: 5}), NewBFS()} {
			t.Run(fmt.Sprintf("%s/B=%d/prefetch=%d", c.Name(), tc.budget, tc.prefetch), func(t *testing.T) {
				env, _ := newTestEnv(t, "cn", 0.05, 4)
				counter := &countingFetcher{next: &fetch.Latency{Backend: env.Fetcher, Delay: time.Millisecond}}
				env.Fetcher = counter
				env.MaxRequests = tc.budget
				env.Prefetch = tc.prefetch
				res, err := c.Run(env)
				if err != nil {
					t.Fatal(err)
				}
				if res.Requests != tc.budget {
					t.Fatalf("crawl spent %d requests, want the full budget of %d", res.Requests, tc.budget)
				}
				if extra := int(counter.calls.Load()) - res.Requests; extra > tc.window {
					t.Errorf("%d backend exchanges beyond the %d charged, want ≤ %d (%+v)", extra, res.Requests, tc.window, res.Spec)
				}
				if (res.Spec == nil) != (tc.prefetch == 0) {
					t.Errorf("Spec = %+v at Prefetch %d; want one iff the crawl speculates", res.Spec, tc.prefetch)
				}
			})
		}
	}
}

// TestFIFOCursorHidesNoHint crawls the three policies whose hints are their
// pop order (BFS, OMNISCIENT, TP-OFF's warm-up) to exhaustion over a
// latency-bound backend, so batches meet the in-flight bound. The engine
// hands the prefetch layer only the hints past their settled prefix, and
// that cursor must never skip one the layer does not track: every
// speculative fetch is consumed, and few requests miss — the counts of a
// full batch every step, 1–3 a crawl on BFS and OMNISCIENT and about a
// seventh on TP-OFF, whose phase-2 guesses can be wrong. A cursor that never
// drops one per step leaves every BFS and OMNISCIENT request past the first
// window unhinted; one that carries TP-OFF's warm-up count into phase 2
// leaves all of phase 2 unhinted.
func TestFIFOCursorHidesNoHint(t *testing.T) {
	for _, tc := range []struct {
		c         Crawler
		missShare int // at most 1/missShare of the requests may miss
	}{
		{NewBFS(), 20},
		{NewOmniscient(), 20},
		{NewTPOff(30, 3), 4},
	} {
		for _, prefetch := range []int{8, 256, PrefetchAuto} {
			t.Run(fmt.Sprintf("%s/prefetch=%d", tc.c.Name(), prefetch), func(t *testing.T) {
				env, _ := newTestEnv(t, "cn", 0.05, 4)
				env.Fetcher = &fetch.Latency{Backend: env.Fetcher, Delay: 200 * time.Microsecond}
				env.Prefetch = prefetch
				res, err := tc.c.Run(env)
				if err != nil {
					t.Fatal(err)
				}
				sp := res.Spec
				t.Logf("%d requests, %+v", res.Requests, *sp)
				if sp.Evicted != 0 || sp.Hits != sp.Launched {
					t.Errorf("%d of %d speculative fetches went unconsumed (%+v)", sp.Launched-sp.Hits, sp.Launched, *sp)
				}
				if sp.Misses*tc.missShare > res.Requests {
					t.Errorf("%d of %d requests missed, want ≤ 1/%d (%+v)", sp.Misses, res.Requests, tc.missShare, *sp)
				}
			})
		}
	}
}
