package sbcrawl

// The retry layer's other side (FuzzCrawlConfig holds that faults recovered
// within the retry budget are invisible): fault knobs key the done-record,
// and a permanently dead host is quarantined at bounded cost while the rest
// of the federation completes.

import (
	"strings"
	"testing"
)

// TestFaultedStoreNeverSatisfiesFaultFreeResume pins the fingerprint
// satellite: fault knobs are part of the done-record key, so a completed
// faulted crawl must not short-circuit a fault-free Resume (and vice versa).
func TestFaultedStoreNeverSatisfiesFaultFreeResume(t *testing.T) {
	site, err := GenerateSite("cl", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{Strategy: StrategyBFS, Seed: 2, StorePath: dir, FaultRate: 0.10, FaultSeed: 7}
	if _, err := CrawlSite(site, cfg); err != nil {
		t.Fatal(err)
	}
	clean := Config{Strategy: StrategyBFS, Seed: 2, StorePath: dir, Resume: true}
	res, err := CrawlSite(site, clean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store != nil && res.Store.Completed {
		t.Error("fault-free Resume was served by a faulted crawl's done-record")
	}
}

// TestBreakerDegradesGracefully is the graceful-degradation gate: one
// permanently dead host in an 8-host federation trips its breaker and is
// quarantined, the other seven hosts complete in full, and the quarantine is
// visible in Result.Faults.
func TestBreakerDegradesGracefully(t *testing.T) {
	codes := []string{"ce", "ab", "ju", "is", "cl", "cn", "in", "ok"}
	fed, err := GenerateFederation(codes, 0.005, 7)
	if err != nil {
		t.Fatal(err)
	}
	const dead = "s3.federation.test"
	baseline, err := CrawlSite(fed, Config{Strategy: StrategyBFS, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	liveTargets := 0
	for _, u := range baseline.Targets {
		if !strings.Contains(u, dead) {
			liveTargets++
		}
	}
	deadTargets := len(baseline.Targets) - liveTargets
	if deadTargets == 0 {
		t.Fatal("test setup: the dead host holds no targets, degradation would be unobservable")
	}

	res, err := CrawlSite(fed, Config{
		Strategy: StrategyBFS, Seed: 2, FaultDeadHosts: []string{dead},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil {
		t.Fatal("crawl with a dead host reported no fault stats")
	}
	if res.Faults.BreakerTrips == 0 {
		t.Error("breaker never tripped on the dead host")
	}
	if res.Faults.BreakerFastFails == 0 {
		t.Error("open breaker never fast-failed a request: the dead host kept burning retry budget")
	}
	found := false
	for _, h := range res.Faults.QuarantinedHosts {
		if strings.Contains(h, dead) {
			found = true
		}
	}
	if !found {
		t.Errorf("dead host missing from quarantine list: %v", res.Faults.QuarantinedHosts)
	}
	got := 0
	for _, u := range res.Targets {
		if strings.Contains(u, dead) {
			t.Errorf("impossible: target retrieved from the dead host: %s", u)
		} else {
			got++
		}
	}
	if got != liveTargets {
		t.Errorf("degraded crawl found %d of %d live-host targets: the dead host dragged the rest down", got, liveTargets)
	}
	// Bounded budget: after the trip, dead-host URLs fast-fail instead of
	// exhausting full retry loops, so exhaustions stay below the failures.
	if res.Faults.Exhausted >= res.Faults.FailedRequests {
		t.Errorf("every dead-host request burned its full retry budget (exhausted=%d, failed=%d): the breaker saved nothing",
			res.Faults.Exhausted, res.Faults.FailedRequests)
	}
}
