package sbcrawl

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sbcrawl/internal/fleet"
)

func fleetSites(t *testing.T, codes ...string) []*Site {
	t.Helper()
	sites := make([]*Site, len(codes))
	for i, code := range codes {
		site, err := GenerateSite(code, 0.0008, 5)
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = site
	}
	return sites
}

func TestCrawlSitesDeterministicAcrossWorkers(t *testing.T) {
	sites := fleetSites(t, "cl", "cn", "qa", "ok")
	cfg := Config{Seed: 11}
	var ref *FleetResult
	for _, workers := range []int{1, 4, 8} {
		res, err := CrawlSites(sites, cfg, FleetOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Failed != 0 || res.Completed != len(sites) {
			t.Fatalf("workers=%d: %d failed", workers, res.Failed)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: fleet result differs from workers=1", workers)
		}
	}
	if ref.Targets == 0 {
		t.Error("fleet retrieved no targets")
	}
}

func TestCrawlSitesMatchesSequentialCrawls(t *testing.T) {
	sites := fleetSites(t, "cl", "cn", "qa")
	cfg := Config{Seed: 3}
	res, err := CrawlSites(sites, cfg, FleetOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var targets, requests int
	var tb, ntb int64
	for i, site := range sites {
		siteCfg := cfg
		siteCfg.Seed = fleet.DeriveSeed(cfg.Seed, i)
		solo, err := CrawlSite(site, siteCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo, res.Sites[i].Result) {
			t.Errorf("site %s: fleet result differs from sequential CrawlSite", site.Code())
		}
		if res.Sites[i].Label != site.Code() {
			t.Errorf("site %d label = %q, want %q", i, res.Sites[i].Label, site.Code())
		}
		targets += len(solo.Targets)
		requests += solo.Requests
		tb += solo.TargetBytes
		ntb += solo.NonTargetBytes
	}
	if res.Targets != targets || res.Requests != requests ||
		res.TargetBytes != tb || res.NonTargetBytes != ntb {
		t.Errorf("aggregates (t=%d r=%d) != sequential sums (t=%d r=%d)",
			res.Targets, res.Requests, targets, requests)
	}
	if len(res.Curve) == 0 {
		t.Error("fleet result has no merged curve")
	}
}

func TestCrawlManyIsolatesBadConfigs(t *testing.T) {
	site := fleetSites(t, "cl")[0]
	ts := httptest.NewServer(site.Handler())
	defer ts.Close()

	cfgs := []Config{
		{Root: ts.URL + "/", Politeness: time.Millisecond, MaxRequests: 40},
		{}, // missing Root
		{Root: "https://example.org/", Strategy: StrategyOmniscient}, // oracle needs ground truth
	}
	res, err := CrawlMany(cfgs, FleetOptions{Workers: 3})
	if err != nil {
		t.Fatalf("bad entries must not fail the batch: %v", err)
	}
	if res.Completed != 1 || res.Failed != 2 {
		t.Fatalf("completed=%d failed=%d, want 1/2", res.Completed, res.Failed)
	}
	good := res.Sites[0]
	if good.Err != nil || good.Result == nil || good.Result.Requests == 0 {
		t.Errorf("live crawl outcome: %+v", good)
	}
	if res.Sites[1].Err == nil || !strings.Contains(res.Sites[1].Err.Error(), "Root") {
		t.Errorf("missing-root error: %v", res.Sites[1].Err)
	}
	if res.Sites[2].Err == nil || !strings.Contains(res.Sites[2].Err.Error(), "ground truth") {
		t.Errorf("oracle-strategy error: %v", res.Sites[2].Err)
	}
	if res.Requests != good.Result.Requests {
		t.Errorf("aggregate requests %d, want the one live crawl's %d", res.Requests, good.Result.Requests)
	}
}

func TestCrawlManyEmptyBatch(t *testing.T) {
	if _, err := CrawlMany(nil, FleetOptions{}); err == nil {
		t.Error("empty batch must error")
	}
	if _, err := CrawlSites(nil, Config{}, FleetOptions{}); err == nil {
		t.Error("empty site list must error")
	}
}

func TestCrawlSitesCancellation(t *testing.T) {
	sites := fleetSites(t, "cl", "cn", "qa", "ok")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the fleet starts: every crawl stops at its first request
	res, err := CrawlSites(sites, Config{Seed: 1}, FleetOptions{Workers: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, s := range res.Sites {
		if s.Result != nil && s.Result.Requests > 0 {
			t.Errorf("site %d issued %d requests under a cancelled context", i, s.Result.Requests)
		}
	}
}

func TestCrawlSitesSimLatency(t *testing.T) {
	sites := fleetSites(t, "cl")
	start := time.Now()
	res, err := CrawlSites(sites, Config{Seed: 1, MaxRequests: 10, SimLatency: 2 * time.Millisecond},
		FleetOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if elapsed := time.Since(start); elapsed < time.Duration(res.Requests)*2*time.Millisecond {
		t.Errorf("%d requests with 2ms latency finished in %v", res.Requests, elapsed)
	}
}

// TestCrawlManyLeavesNoGoroutine: a live fleet sharing speculation under
// PrefetchAuto leaves no goroutine behind — its workers, the crawls'
// Prefetcher workers and the keep-alive connections of the transport its
// fetchers share are gone once it returns, so runtime.NumGoroutine comes
// back to its count before the fleet.
func TestCrawlManyLeavesNoGoroutine(t *testing.T) {
	site := fleetSites(t, "cl")[0]
	ts := httptest.NewServer(site.Handler())
	defer ts.Close()
	before := runtime.NumGoroutine()
	cfg := Config{Root: ts.URL + "/", Strategy: StrategyBFS, Prefetch: PrefetchAuto, Politeness: time.Millisecond, MaxRequests: 40}
	res, err := CrawlMany([]Config{cfg, cfg, cfg}, FleetOptions{Workers: 2, SharedSpeculation: true})
	if err != nil || res.Completed != 3 {
		t.Fatalf("fleet: %v, %+v", err, res)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the fleet, %d before", runtime.NumGoroutine(), before)
		}
	}
}
