//go:build !race

package hnsw

const raceEnabled = false
