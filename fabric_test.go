package sbcrawl

import (
	"reflect"
	"testing"
	"time"
)

// TestFabricFleetStats: a fleet of partitioned crawls surfaces summed fabric
// counters (its results are FuzzCrawlConfig's).
func TestFabricFleetStats(t *testing.T) {
	site, err := invariantSites['f']()
	if err != nil {
		t.Fatal(err)
	}
	// Latency so speculation runs ahead of the loop and the launch counters
	// below are reliably non-zero: with instant fetches the loop consumes
	// every speculative fetch the moment it launches.
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
	if !reflect.DeepEqual(outcome(r1), outcome(r4)) {
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
