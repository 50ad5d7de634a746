package experiments

import (
	"bytes"
	"math"
	"testing"
)

// TestHeadlineShapeReproduces guards the paper's central result at the
// aggregate level: over a set of mid-size sites, SB-CLASSIFIER needs fewer
// requests to reach 90% of targets than FOCUSED, which needs fewer than
// BFS. This is the regression test for the reproduction itself — if the
// generator, the engine, or the agent drifts, this trips first.
func TestHeadlineShapeReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregate crawl comparison is slow")
	}
	var out bytes.Buffer
	cfg := Config{Scale: 0.004, Seed: 1, Runs: 1, Out: &out}.withDefaults()

	sums := map[string]float64{}
	counts := map[string]int{}
	// The paper's headline: "90% of the targets accessing only 20% of the
	// webpages" on some large sites. The best per-site SB cell must get into
	// that regime.
	best := math.Inf(1)
	for _, code := range []string{"nc", "ed", "wo", "in"} {
		se, err := buildSite(cfg, code)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := runMatrix(cfg, se)
		if err != nil {
			t.Fatal(err)
		}
		best = math.Min(best, cells["SB-CLASSIFIER"].RequestPct)
		for _, name := range []string{"SB-CLASSIFIER", "FOCUSED", "BFS", "RANDOM", "OMNISCIENT"} {
			cell, ok := cells[name]
			if !ok {
				continue
			}
			v := cell.RequestPct
			if math.IsInf(v, 1) {
				v = 200 // cap never-reached at a worst-case sentinel
			}
			sums[name] += v
			counts[name]++
		}
	}
	mean := func(name string) float64 { return sums[name] / float64(counts[name]) }

	sb, focused, bfs, rnd, omni := mean("SB-CLASSIFIER"), mean("FOCUSED"), mean("BFS"), mean("RANDOM"), mean("OMNISCIENT")
	t.Logf("mean req%% to 90%%: OMNISCIENT=%.1f SB=%.1f FOCUSED=%.1f BFS=%.1f RANDOM=%.1f",
		omni, sb, focused, bfs, rnd)
	if !(sb < focused) {
		t.Errorf("SB-CLASSIFIER (%.1f) must beat FOCUSED (%.1f) on aggregate", sb, focused)
	}
	if !(focused < bfs) {
		t.Errorf("FOCUSED (%.1f) must beat BFS (%.1f) on aggregate", focused, bfs)
	}
	if !(sb < rnd) {
		t.Errorf("SB-CLASSIFIER (%.1f) must beat RANDOM (%.1f)", sb, rnd)
	}
	if !(omni < sb) {
		t.Errorf("OMNISCIENT (%.1f) must lower-bound SB (%.1f)", omni, sb)
	}
	if best > 35 {
		t.Errorf("best-site SB-CLASSIFIER = %.1f%%, want the ≲20-35%% regime of the headline claim", best)
	}
}
