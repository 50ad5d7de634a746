//go:build race

package webserver

// poisonBody overwrites a handed-back body with a fixed byte before it
// parks. Race builds only: a reader that outlives Recycle then sees 0xAA
// instead of the page, so the golden crawls and crawl equivalences run
// under -race fail on it, and the race detector flags a reader on another
// goroutine.
func poisonBody(body []byte) {
	for i := range body {
		body[i] = 0xAA
	}
}
