package fetch

// The adaptive speculation controller: a Prefetcher's in-flight window is a
// bet on how much of what the strategy guesses the crawl then asks for, and
// the right width differs per site and per strategy. What the tuner sizes is
// the policy's own guesses at its next selections, the hints Prefetcher.Hint
// takes: BFS, DFS and the priority frontiers hint their exact pop order,
// RANDOM's hints are 1/Len guesses, and SB hints the one link the bandit's
// next draw will take. Rather than asking the caller to tune Prefetch per
// crawl, AutoTuner observes the speculation outcomes online and adjusts the
// window the way TCP adjusts its congestion window: a slow-start ramp while
// every hint lands, then additive increase / multiplicative decrease (AIMD)
// around the first congestion signal — a sinking hit rate or eviction-heavy
// speculation, both meaning the window outruns the hints' accuracy.
//
// The tuner does not gate exchanges the crawl loop has already decided to
// issue (Prefetcher.HintDemands): SB's predicted targets on the page it is
// ingesting, its warm-up HEAD probes and the bandit draw behind them go out
// as one batch bounded by AutoMaxWindow and the budget, so a hit rate sunk by
// wrong next-draw guesses no longer narrows them.
//
// The tuner only ever changes how wide the Prefetcher speculates, never
// what the crawl returns: speculation is a pure cache warm-up, so results
// stay byte-identical to the sequential engine whatever window trajectory
// the tuner drives (its inputs are wall-clock dependent, its effects are
// not observable in crawl results).

// AutoMaxWindow is the widest window the tuner drives, and so the in-flight
// ceiling of a crawl under the adaptive controller. It is sized for a
// latency-bound crawl: by Little's law, 32k requests/s at 5 ms a fetch keep
// ~160 fetches in flight, and a ceiling of 64 ran a BFS sweep of an
// eight-host federation at a third of that rate. A wide ceiling costs a
// crawl step no rescan of the window: a policy whose hints are its pop order
// hands Hint only what is new past their settled prefix, and every batch
// stops at its in-flight bound.
const AutoMaxWindow = 256

// Tuning constants. The window is sampled every autoSampleEvery crawl
// steps; rates are computed over the deltas since the previous sample, so
// the tuner reacts to the crawl's current phase rather than its history.
// The start and the additive step keep the ramp's shape at the ceiling's
// scale: a window starts at 1/16 of AutoMaxWindow and, past slow start,
// grows by 1/32 of it a sample. The floor stays at one fetch in flight, so a
// crawl whose hints keep missing speculates almost nothing.
const (
	autoMinWindow     = 1
	autoInitialWindow = 16
	autoStep          = 8
	autoSampleEvery   = 4

	// widenHitRate is the per-sample hit rate above which the window grows
	// (hints are landing: speculate deeper).
	widenHitRate = 0.7
	// narrowHitRate is the per-sample hit rate below which the window is
	// halved (hints are missing: most speculation is wasted traffic).
	narrowHitRate = 0.3
)

// AutoTuner adapts a Prefetcher's in-flight window online. It is driven by
// the crawl engine — one Observe per crawl step, from the engine's single
// loop goroutine — and is not safe for concurrent use.
type AutoTuner struct {
	window int
	ramp   bool // slow start: double until the first congestion signal
	steps  int
	last   PrefetchStats
}

// NewAutoTuner starts a tuner at the conservative initial window, in
// slow-start mode.
func NewAutoTuner() *AutoTuner {
	return &AutoTuner{window: autoInitialWindow, ramp: true}
}

// Window returns the current window width.
func (t *AutoTuner) Window() int { return t.window }

// Observe feeds one crawl step's stats snapshot and returns the window to
// speculate with. Every autoSampleEvery steps it re-evaluates: the hit rate
// over the sample decides between growing (doubling while in slow start,
// +autoStep afterwards), holding, and halving; eviction-heavy samples — more
// speculation dropped than consumed — also halve, whatever the hit rate,
// because they mean the store churns faster than the crawl consumes it.
func (t *AutoTuner) Observe(st PrefetchStats) int {
	t.steps++
	if t.steps%autoSampleEvery != 0 {
		return t.window
	}
	dHits := st.Hits - t.last.Hits
	dMisses := st.Misses - t.last.Misses
	dEvicted := st.Evicted - t.last.Evicted
	dLaunched := st.Launched - t.last.Launched
	t.last = st
	lookups := dHits + dMisses
	if lookups == 0 {
		return t.window // no demand traffic this sample: nothing to learn
	}
	hitRate := float64(dHits) / float64(lookups)
	evictionHeavy := dEvicted > 0 && 2*dEvicted > dLaunched
	switch {
	case hitRate < narrowHitRate || evictionHeavy:
		t.ramp = false
		t.window /= 2 // multiplicative decrease
	case hitRate >= widenHitRate:
		if t.ramp {
			t.window *= 2 // slow start: find the plateau fast
		} else {
			t.window += autoStep // additive increase
		}
	}
	if t.window < autoMinWindow {
		t.window = autoMinWindow
	}
	if t.window > AutoMaxWindow {
		t.window = AutoMaxWindow
	}
	return t.window
}
