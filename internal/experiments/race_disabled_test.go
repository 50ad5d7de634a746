//go:build !race

package experiments

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
