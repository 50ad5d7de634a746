package sbcrawl

// The speculative prefetch layer must be visible in wall-clock time: a
// latency-bound crawl speeds up when the window opens. That it is invisible
// in results is FuzzCrawlConfig's prefetch axis.

import (
	"reflect"
	"testing"
	"time"
)

// allStrategies is the full Section 4.3 lineup, oracle strategies included
// (CrawlSite wires their ground truth).
var allStrategies = []Strategy{
	StrategySB, StrategySBOracle, StrategyBFS, StrategyDFS, StrategyRandom,
	StrategyFocused, StrategyTPOff, StrategyTRES, StrategyOmniscient,
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
