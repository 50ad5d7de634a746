package sbcrawl

// Resume-equivalence gate for the persistent crawl store: a crawl killed at
// any step and resumed over its store must produce Results byte-identical
// to a run that was never interrupted — for all 9 strategies and for
// Prefetch ∈ {0, 8, auto} — because resume is deterministic re-execution
// over the durable replay database. The fleet variants additionally pin
// warm starts (every page served by the replay database) and done-record
// short-circuits.

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// resumeWidths is the ISSUE 5 acceptance sweep: sequential, a fixed
// window, and the adaptive controller.
var resumeWidths = []int{0, 8, PrefetchAuto}

// stripStore clears the store diagnostics so results can be compared to
// store-less baselines (the crawl outcome must match byte for byte; the
// diagnostics legitimately differ).
func stripStore(res *Result) *Result {
	res.Store = nil
	return res
}

func TestResumeEquivalence(t *testing.T) {
	site, err := GenerateSite("cn", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range allStrategies {
		s := s
		t.Run(string(s), func(t *testing.T) {
			for _, width := range resumeWidths {
				cfg := Config{Strategy: s, Seed: 2, Prefetch: width}
				baseline, err := CrawlSite(site, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Kill at step k: run the same crawl with a hard budget
				// into a fresh store, leaving a partial durable prefix.
				dir := t.TempDir()
				killCfg := cfg
				killCfg.MaxRequests = 13
				killCfg.StorePath = dir
				if _, err := CrawlSite(site, killCfg); err != nil {
					t.Fatal(err)
				}
				// Resume: full budget over the same store.
				resCfg := cfg
				resCfg.StorePath = dir
				resCfg.Resume = true
				resumed, err := CrawlSite(site, resCfg)
				if err != nil {
					t.Fatal(err)
				}
				if resumed.Store == nil || !resumed.Store.Resumed {
					t.Fatalf("prefetch=%d: resumed crawl did not report a warm start: %+v", width, resumed.Store)
				}
				if resumed.Store.ReplayHits == 0 {
					t.Fatalf("prefetch=%d: resumed crawl replayed nothing from the store", width)
				}
				if resumed.Store.Completed {
					t.Fatalf("prefetch=%d: the killed run's done-record leaked into a different budget", width)
				}
				if !reflect.DeepEqual(stripStore(resumed), baseline) {
					t.Errorf("prefetch=%d: resumed crawl diverged from uninterrupted run:\nbase:   req=%d targets=%d curve=%d\nresume: req=%d targets=%d curve=%d",
						width, baseline.Requests, len(baseline.Targets), len(baseline.Curve),
						resumed.Requests, len(resumed.Targets), len(resumed.Curve))
				}
			}
		})
	}
}

// TestResumeEquivalenceAfterCancel kills a fleet the hard way — context
// cancellation mid-flight, at a timing-dependent step — and still demands
// byte-identical resume: re-execution does not care where the kill landed.
func TestResumeEquivalenceAfterCancel(t *testing.T) {
	site, err := GenerateSite("cl", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	sites := []*Site{site, site}
	cfg := Config{Strategy: StrategySB, Seed: 7, Prefetch: 8, SimLatency: 200 * time.Microsecond}
	baseline, err := CrawlSites(sites, cfg, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	killCfg := cfg
	killCfg.StorePath = dir
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	// The cancelled fleet returns partial results (and the ctx error);
	// only its durable side effects matter here.
	if _, err := CrawlSites(sites, killCfg, FleetOptions{Workers: 2, Ctx: ctx}); err == nil {
		t.Log("fleet finished before the cancel landed; resume is then a pure warm start")
	}

	resCfg := cfg
	resCfg.StorePath = dir
	resCfg.Resume = true
	resumed, err := CrawlSites(sites, resCfg, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range baseline.Sites {
		want, got := baseline.Sites[i].Result, resumed.Sites[i].Result
		if want == nil || got == nil {
			t.Fatalf("site %d missing result: base=%v resumed=%v", i, want != nil, got != nil)
		}
		if !reflect.DeepEqual(stripStore(got), stripStore(want)) {
			t.Errorf("site %d: resumed result diverged from uninterrupted fleet", i)
		}
	}
	if !reflect.DeepEqual(resumed.Curve, baseline.Curve) {
		t.Error("resumed fleet curve diverged from uninterrupted fleet")
	}
}

// TestFleetWarmStart is the ISSUE 5 acceptance: a second fleet over the
// same sites with StorePath set starts warm — the durable replay database
// serves every page, so the fleet touches no backend — and still returns
// byte-identical results.
func TestFleetWarmStart(t *testing.T) {
	site, err := GenerateSite("ju", 0.01, 9)
	if err != nil {
		t.Fatal(err)
	}
	sites := []*Site{site, site}
	dir := t.TempDir()
	cfg := Config{Strategy: StrategySB, Seed: 4, Prefetch: 8, StorePath: dir}
	// The small cap keeps the speculation cache from covering the whole
	// site, so its overflow falls through to the replay database too.
	opts := FleetOptions{Workers: 2, SharedSpeculation: true, SpecCacheCap: 12}

	first, err := CrawlSites(sites, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Note: even on a cold store the fleet's second crawl of the same Site
	// can report a warm start — its twin's responses are already durable —
	// so only the store's presence is asserted here.
	if first.Store == nil {
		t.Fatal("first fleet reported no store activity")
	}
	second, err := CrawlSites(sites, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Store == nil || !second.Store.Resumed {
		t.Fatalf("second fleet did not start warm: %+v", second.Store)
	}
	if second.Store.ReplayHits == 0 {
		t.Error("second fleet never hit the durable replay database")
	}
	if second.Store.ReplayMisses != 0 {
		t.Errorf("warm fleet went to the backend %d times", second.Store.ReplayMisses)
	}
	for i := range first.Sites {
		want, got := first.Sites[i].Result, second.Sites[i].Result
		if !reflect.DeepEqual(stripStore(got), stripStore(want)) {
			t.Errorf("site %d: warm fleet result diverged from cold fleet", i)
		}
	}
}

// TestSharedSpeculationStoresEachResponseOnce pins what the store holds
// after fleets that share speculation: the cache lives in memory for one
// fleet and the replay database is the only durable copy of a response, so
// two such fleets over one store leave about the bytes the same two fleets
// leave without sharing (1.15x measured; a cache spilled beside the replay
// database and re-written after every fleet left 2.7x).
func TestSharedSpeculationStoresEachResponseOnce(t *testing.T) {
	site, err := GenerateSite("ju", 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	sites := []*Site{site, site}
	storeBytes := func(shared bool) int64 {
		dir := t.TempDir()
		cfg := Config{Strategy: StrategySB, Seed: 4, Prefetch: PrefetchAuto, StorePath: dir}
		for fleet := 0; fleet < 2; fleet++ {
			if _, err := CrawlSites(sites, cfg, FleetOptions{Workers: 2, SharedSpeculation: shared}); err != nil {
				t.Fatal(err)
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
		return total
	}
	plain, shared := storeBytes(false), storeBytes(true)
	if float64(shared) > 1.5*float64(plain) {
		t.Errorf("store holds %d bytes after two sharing fleets, %d without sharing: responses are stored more than once", shared, plain)
	}
}

// TestResumeSkipsCompleted pins the done-record path: a finished fleet
// restarted with Resume returns its stored results without re-crawling.
func TestResumeSkipsCompleted(t *testing.T) {
	site, err := GenerateSite("ab", 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites := []*Site{site, site}
	dir := t.TempDir()
	cfg := Config{Strategy: StrategyBFS, Seed: 1, StorePath: dir}

	first, err := CrawlSites(sites, cfg, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	resCfg := cfg
	resCfg.Resume = true
	second, err := CrawlSites(sites, resCfg, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if second.Store == nil || !second.Store.Completed {
		t.Fatalf("restarted fleet should be served from done-records: %+v", second.Store)
	}
	for i := range first.Sites {
		if !reflect.DeepEqual(stripStore(second.Sites[i].Result), stripStore(first.Sites[i].Result)) {
			t.Errorf("site %d: stored result diverged from the original", i)
		}
	}
	// A different budget is a different crawl: Resume must not serve the
	// stored result for it.
	budgeted := cfg
	budgeted.Resume = true
	budgeted.MaxRequests = 9
	third, err := CrawlSite(site, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if third.Store.Completed {
		t.Error("done-record leaked across different MaxRequests")
	}
	if third.Requests > 9 {
		t.Errorf("budgeted resume issued %d requests", third.Requests)
	}
}

// TestResumeAfterStoreCorruption pins the recovery path end to end: the
// killed crawl's store loses its segment tail (as after a crash
// mid-write), and resume still reproduces the uninterrupted run — what the
// log lost is simply re-fetched.
func TestResumeAfterStoreCorruption(t *testing.T) {
	site, err := GenerateSite("is", 0.01, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: StrategySB, Seed: 3}
	baseline, err := CrawlSite(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	killCfg := cfg
	killCfg.MaxRequests = 25
	killCfg.StorePath = dir
	if _, err := CrawlSite(site, killCfg); err != nil {
		t.Fatal(err)
	}
	// Damage the newest non-empty segment: chop its tail mid-record.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v %v", segs, err)
	}
	damaged := false
	for i := len(segs) - 1; i >= 0; i-- {
		info, err := os.Stat(segs[i])
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() < 40 {
			continue
		}
		if err := os.Truncate(segs[i], info.Size()-17); err != nil {
			t.Fatal(err)
		}
		damaged = true
		break
	}
	if !damaged {
		t.Fatal("found no segment worth damaging")
	}

	resCfg := cfg
	resCfg.StorePath = dir
	resCfg.Resume = true
	resumed, err := CrawlSite(site, resCfg)
	if err != nil {
		t.Fatalf("resume over a damaged store must recover, not fail: %v", err)
	}
	if !reflect.DeepEqual(stripStore(resumed), baseline) {
		t.Error("resume over a damaged store diverged from the uninterrupted run")
	}
}

// TestCrawlManyStoreWarmStart exercises the live path over real HTTP: a
// second CrawlMany against the same served sites with StorePath set
// replays from the store instead of re-fetching.
func TestCrawlManyStoreWarmStart(t *testing.T) {
	site, err := GenerateSite("ce", 0.005, 8)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(site.Handler())
	defer ts.Close()
	dir := t.TempDir()
	cfgs := []Config{
		{Root: ts.URL + "/", Strategy: StrategyBFS, Politeness: time.Millisecond, MaxRequests: 30, StorePath: dir},
		{Root: ts.URL + "/", Strategy: StrategyDFS, Politeness: time.Millisecond, MaxRequests: 30, StorePath: dir},
	}
	first, err := CrawlMany(cfgs, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Completed != 2 {
		t.Fatalf("first fleet completed %d/2", first.Completed)
	}
	second, err := CrawlMany(cfgs, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if second.Store == nil || !second.Store.Resumed || second.Store.ReplayHits == 0 {
		t.Fatalf("second live fleet did not replay from the store: %+v", second.Store)
	}
	for i := range first.Sites {
		if !reflect.DeepEqual(stripStore(second.Sites[i].Result), stripStore(first.Sites[i].Result)) {
			t.Errorf("site %d: replayed live crawl diverged", i)
		}
	}
}
