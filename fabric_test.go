package sbcrawl

import (
	"reflect"
	"testing"
	"time"
)

// fabricPartitionCounts is the ISSUE 8 acceptance sweep.
var fabricPartitionCounts = []int{1, 2, 4}

// stripFabric clears the fabric diagnostics so partitioned results can be
// compared to unpartitioned baselines (the crawl outcome must match byte
// for byte; the scheduling-dependent counters legitimately differ).
func stripFabric(res *Result) *Result {
	res.Fabric = nil
	return res
}

// federationSite builds the multi-host workload of the partition tests: four
// member sites behind one portal, with cross-host links between them.
func federationSite(t *testing.T) *Site {
	t.Helper()
	site, err := GenerateFederation([]string{"ce", "ab", "ju", "is"}, 0.005, 7)
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// TestFabricEquivalence is the ISSUE 8 determinism gate: every strategy,
// at every partition count, with and without the engine's own speculation
// window, produces a Result byte-identical to the unpartitioned engine on
// a multi-host crawl. Partitioning is a pure cache warm-up.
func TestFabricEquivalence(t *testing.T) {
	site := federationSite(t)
	for _, s := range allStrategies {
		s := s
		t.Run(string(s), func(t *testing.T) {
			cfg := Config{Strategy: s, Seed: 3, MaxRequests: 150}
			baseline, err := CrawlSite(site, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, parts := range fabricPartitionCounts {
				for _, width := range []int{0, PrefetchAuto} {
					pcfg := cfg
					pcfg.Partitions = parts
					pcfg.Prefetch = width
					got, err := CrawlSite(site, pcfg)
					if err != nil {
						t.Fatal(err)
					}
					if got.Fabric == nil || got.Fabric.Partitions != parts {
						t.Fatalf("partitions=%d prefetch=%d: missing or wrong fabric stats: %+v",
							parts, width, got.Fabric)
					}
					if !reflect.DeepEqual(stripFabric(got), baseline) {
						t.Errorf("partitions=%d prefetch=%d diverged from unpartitioned engine:\nbase: req=%d targets=%d\ngot:  req=%d targets=%d",
							parts, width, baseline.Requests, len(baseline.Targets),
							got.Requests, len(got.Targets))
					}
				}
			}
		})
	}
}

// TestFabricEquivalenceExhaustive drops the budget cap: a full crawl to
// frontier exhaustion must also match.
func TestFabricEquivalenceExhaustive(t *testing.T) {
	site, err := GenerateFederation([]string{"cl", "cn"}, 0.005, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The latency keeps the test meaningful: with instant fetches the loop
	// consumes every speculative fetch the moment it launches.
	cfg := Config{Strategy: StrategyBFS, SimLatency: 2 * time.Millisecond}
	baseline, err := CrawlSite(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Partitions = 2
	got, err := CrawlSite(site, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fabric == nil {
		t.Fatal("partitioned crawl reported no fabric stats")
	}
	if !reflect.DeepEqual(stripFabric(got), baseline) {
		t.Errorf("exhaustive partitioned crawl diverged: base req=%d targets=%d, got req=%d targets=%d",
			baseline.Requests, len(baseline.Targets), got.Requests, len(got.Targets))
	}
}

// TestFabricResumeEquivalence kills a partitioned crawl mid-flight (hard
// budget into a fresh store, checkpointing every few requests) and resumes
// with the full budget: the result must be byte-identical to a
// never-interrupted unpartitioned run.
func TestFabricResumeEquivalence(t *testing.T) {
	site := federationSite(t)
	for _, s := range []Strategy{StrategyBFS, StrategySB, StrategyRandom} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			cfg := Config{Strategy: s, Seed: 2, MaxRequests: 120, Partitions: 2, Prefetch: PrefetchAuto}
			base := cfg
			base.Partitions = 0
			base.Prefetch = 0
			baseline, err := CrawlSite(site, base)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			killCfg := cfg
			killCfg.MaxRequests = 13
			killCfg.StorePath = dir
			killCfg.CheckpointEvery = 5
			if _, err := CrawlSite(site, killCfg); err != nil {
				t.Fatal(err)
			}
			resCfg := cfg
			resCfg.StorePath = dir
			resCfg.Resume = true
			resCfg.CheckpointEvery = 5
			resumed, err := CrawlSite(site, resCfg)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Store == nil || !resumed.Store.Resumed {
				t.Fatalf("resumed partitioned crawl did not report a warm start: %+v", resumed.Store)
			}
			if resumed.Store.ReplayHits == 0 {
				t.Fatal("resumed partitioned crawl replayed nothing from the store")
			}
			if resumed.Store.Completed {
				t.Fatal("the killed run's done-record leaked into a different budget")
			}
			if resumed.Fabric == nil {
				t.Fatal("resumed partitioned crawl reported no fabric stats")
			}
			if !reflect.DeepEqual(stripFabric(stripStore(resumed)), baseline) {
				t.Errorf("resumed partitioned crawl diverged from uninterrupted run:\nbase:   req=%d targets=%d\nresume: req=%d targets=%d",
					baseline.Requests, len(baseline.Targets), resumed.Requests, len(resumed.Targets))
			}
		})
	}
}

// TestFabricFleetStats checks the fleet aggregation satellite: a fleet of
// partitioned crawls surfaces summed fabric counters, and results stay
// byte-identical to unpartitioned fleet runs.
func TestFabricFleetStats(t *testing.T) {
	site := federationSite(t)
	// Latency so speculation runs ahead of the loop and the launch counters
	// below are reliably non-zero (see TestFabricEquivalenceExhaustive).
	cfg := Config{Strategy: StrategyBFS, MaxRequests: 100, SimLatency: 2 * time.Millisecond, Partitions: 2}
	fr, err := CrawlSites([]*Site{site, site}, cfg, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Fabric.Partitions != 2 {
		t.Errorf("fleet fabric partitions = %d, want 2", fr.Fabric.Partitions)
	}
	if len(fr.Fabric.PartitionFetches) != 2 {
		t.Errorf("fleet per-partition fetch counts = %v, want 2 entries", fr.Fabric.PartitionFetches)
	}
	total := 0
	for _, n := range fr.Fabric.PartitionFetches {
		total += n
	}
	if total == 0 {
		t.Error("fleet of partitioned crawls issued no partition fetches")
	}
	plain, err := CrawlSites([]*Site{site, site},
		Config{Strategy: StrategyBFS, MaxRequests: 100, SimLatency: 2 * time.Millisecond},
		FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fr.Sites {
		if !reflect.DeepEqual(stripFabric(fr.Sites[i].Result), plain.Sites[i].Result) {
			t.Errorf("site %d: partitioned fleet result diverged from plain fleet", i)
		}
	}
}

// TestFabricSpeedup is the conservative wall-clock gate on Partitions: on
// a latency-bound multi-host crawl, partitions=4 (32 fetches in flight)
// must beat partitions=1 (8) by at least 1.5x; the bar is far below the
// window ratio to absorb scheduler noise.
// Skipped under -race: the detector's synchronization overhead lands
// almost entirely on the concurrent side and inverts the ratio.
func TestFabricSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("wall-clock ratios are meaningless under the race detector")
	}
	site, err := GenerateFederation(
		[]string{"ce", "ce", "ce", "ce", "ce", "ce", "ce", "ce"}, 0.005, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: StrategyBFS, MaxRequests: 600, SimLatency: 10 * time.Millisecond}

	run := func(parts int) (time.Duration, *Result) {
		c := cfg
		c.Partitions = parts
		start := time.Now()
		res, err := CrawlSite(site, c)
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), res
	}
	// Determinism first: the two configurations must agree exactly.
	t1, r1 := run(1)
	t4, r4 := run(4)
	if !reflect.DeepEqual(stripFabric(r1), stripFabric(r4)) {
		t.Fatal("partitions=1 and partitions=4 disagree on results")
	}
	// Best of two per configuration: `go test ./...` runs package binaries
	// concurrently, and a one-off contention spike on either side should not
	// flake the ratio.
	if t1b, _ := run(1); t1b < t1 {
		t1 = t1b
	}
	if t4b, _ := run(4); t4b < t4 {
		t4 = t4b
	}
	if t4 > t1*2/3 {
		t.Errorf("partitions=4 took %v vs %v at partitions=1; want >= 1.5x speedup", t4, t1)
	}
}
