package sbcrawl

// What a store keeps and serves beyond the crawl invariant (FuzzCrawlConfig
// holds kill, resume and warm starts byte-identical): the bytes two sharing
// fleets leave, done-record short-circuits across budgets, and replay over
// live HTTP.

import (
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"
)

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
		if !reflect.DeepEqual(outcome(second.Sites[i].Result), outcome(first.Sites[i].Result)) {
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
		if !reflect.DeepEqual(outcome(second.Sites[i].Result), outcome(first.Sites[i].Result)) {
			t.Errorf("site %d: replayed live crawl diverged", i)
		}
	}
}
