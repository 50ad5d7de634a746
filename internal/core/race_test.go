//go:build race

package core

// raceEnabled reports that this test binary runs under the race detector,
// where allocation budgets do not hold (the runtime inserts extra
// bookkeeping allocations) and the dense reference replays run ~10x slower.
const raceEnabled = true
