//go:build !race

package sitegen

const raceEnabled = false
