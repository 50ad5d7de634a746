//go:build !race

package webserver

const raceEnabled = false
