//go:build race

package webserver

// raceEnabled reports that this test binary runs under the race detector,
// where allocation budgets do not hold (the runtime inserts extra
// bookkeeping allocations).
const raceEnabled = true
