//go:build race

package serve

// raceEnabled reports that this test binary runs under the race detector,
// where allocation budgets do not hold (the runtime inserts extra
// bookkeeping allocations, and sync.Pool drops a share of what it is given).
const raceEnabled = true
