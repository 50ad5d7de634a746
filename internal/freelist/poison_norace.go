//go:build !race

package freelist

// Poison leaves a handed-back buffer as it is outside race builds (see
// poison_race.go).
func Poison([]byte) {}
