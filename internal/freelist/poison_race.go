//go:build race

package freelist

// Poison overwrites a handed-back buffer with a fixed byte before its lender
// reuses it. Race builds only: a reader that outlives the hand-back then
// sees 0xAA instead of its bytes, so the golden crawls and crawl
// equivalences run under -race fail on it, and the race detector flags a
// reader on another goroutine. Every lender calls it: the simulated
// servers' body lists and the replay database's lent store buffers.
func Poison(b []byte) {
	for i := range b {
		b[i] = 0xAA
	}
}
