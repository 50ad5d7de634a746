// Package freelist is the one free list a crawl's per-crawl state is parked
// on for the next crawl: dom's parsers, the engine's tables, the classifier's
// arenas, the models' weight tables, the tag-path vocabularies, the
// generators of the action index and the grouped frontier, and codec's
// encode and read buffers.
//
// A list is a bounded channel, not a sync.Pool: a pool is emptied at every
// GC, so how much a crawl allocates would depend on when the collector
// happens to run, and a cold value re-grows everything a warm one kept. Get
// and Put never block: an empty list makes the caller build its value as if
// there were no list, and a full one drops the value for the GC.
//
// A list never lets a value go, and a cleared map keeps the buckets it grew,
// so every user parks a value in the state a new one starts in — emptied, or
// re-seeded when it is taken — and a value whose size has no fixed limit
// only while it is under that user's own size bounds (its maxParked
// constants); one an outsized crawl or page grew past them is left to the GC
// instead of parked.
package freelist

// Cap is how many idle values a list keeps: one per crawl, or per page
// extraction, that can be running at once. Fleets and the daemon default to
// one crawl per core, so 8 covers them on ordinary machines; callers beyond
// it build a value and drop it afterwards, the cost every caller paid after
// each GC under a sync.Pool.
const Cap = 8

// List is a bounded free list of T.
type List[T any] chan T

// New returns an empty list with room for Cap values.
func New[T any]() List[T] { return make(List[T], Cap) }

// Get takes a parked value, or returns T's zero value and false when none is
// waiting.
func (l List[T]) Get() (T, bool) {
	select {
	case v := <-l:
		return v, true
	default:
		var zero T
		return zero, false
	}
}

// Put parks v if the list has room, and drops it otherwise.
func (l List[T]) Put(v T) {
	select {
	case l <- v:
	default:
	}
}
