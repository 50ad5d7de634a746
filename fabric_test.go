package sbcrawl

import (
	"reflect"
	"testing"
	"time"
)

// TestFabricSpeedup is the conservative wall-clock gate on the adaptive
// window's reach: on a latency-bound multi-host crawl, PrefetchAuto (which
// ramps towards fetch.AutoMaxWindow in flight) must beat a fixed window of 8
// by at least 1.5x; the bar is far below the window ratio to absorb
// scheduler noise.
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

	run := func(prefetch int) (time.Duration, *Result) {
		c := cfg
		c.Prefetch = prefetch
		start := time.Now()
		res, err := CrawlSite(site, c)
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), res
	}
	// Determinism first: the two configurations must agree exactly.
	tFixed, rFixed := run(8)
	tAuto, rAuto := run(PrefetchAuto)
	if !reflect.DeepEqual(outcome(rFixed), outcome(rAuto)) {
		t.Fatal("Prefetch 8 and PrefetchAuto disagree on results")
	}
	// Best of two per configuration: `go test ./...` runs package binaries
	// concurrently, and a one-off contention spike on either side should not
	// flake the ratio.
	if tb, _ := run(8); tb < tFixed {
		tFixed = tb
	}
	if tb, _ := run(PrefetchAuto); tb < tAuto {
		tAuto = tb
	}
	if tAuto > tFixed*2/3 {
		t.Errorf("PrefetchAuto took %v vs %v at Prefetch 8; want >= 1.5x speedup", tAuto, tFixed)
	}
}
