package webserver

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"sbcrawl/internal/freelist"
)

// GET bodies are lent. A Server or Federation builds each body it answers a
// GET with in a buffer taken off bodyFree, and a caller done with the body
// hands it back through Recycle (fetch.Recycler), which parks the buffer for
// a later GET. A crawl that reads each body once and drops it — the engine
// extracts a page's links, or charges a target's length, and is done — then
// renders page after page into the same few buffers instead of allocating
// every body afresh. Handing back is optional: a body never recycled is the
// GC's, as every body was before.
//
// The list is size-classed, bodyClassSteps classes to an octave from
// bodyClassMin up, and one for the whole process: the simulated servers of
// a fleet share it. A buffer parks in the largest class it covers and is
// taken only for a body it has room for, so a take never grows what it
// gets. A take with nothing parked allocates the body at its own size,
// never at its class's, so a body that never comes back costs what it cost
// before lending.
const (
	bodyClassMinLog = 8                    // the smallest class: 256 B, sitegen's smallest target
	bodyClassMin    = 1 << bodyClassMinLog // a buffer under it never parks
	bodyClassSteps  = 8                    // classes per octave: a class is at most 12.5 % over its bodies
	bodyOctaves     = 11                   // 256 B to 512 KB, sitegen's largest target
	bodyClasses     = bodyOctaves*bodyClassSteps + 1

	// maxParkedBodyBytes bounds the bytes of all parked bodies together. A
	// sequential crawl has one body out at a time and a window's bodies come
	// back as fast as it launches new ones, so a few buffers cover either;
	// an unbounded list would instead pin every body size a crawl ever saw.
	maxParkedBodyBytes = 256 << 10
)

// bodyFree holds the parked buffers, one list per class, each emptied.
var bodyFree = func() (l [bodyClasses]freelist.List[[]byte]) {
	for c := range l {
		l[c] = freelist.New[[]byte]()
	}
	return l
}()

// parkedBodyBytes is the capacity of every buffer on bodyFree. A Put
// reserves its buffer's bytes here before parking it, so the total never
// passes maxParkedBodyBytes, even between racing Puts.
var parkedBodyBytes atomic.Int64

// floorClass is the largest class whose size is at most n, the class a
// buffer of capacity n parks in; -1 when n is under bodyClassMin. Class c's
// size is bodyClassMin·2^(c/8)·(1 + (c%8)/8): 256 B, 288 B, … 480 B, 512 B,
// 576 B, … 512 KB.
func floorClass(n int) int {
	if n < bodyClassMin {
		return -1
	}
	top := bits.Len(uint(n)) - 1
	return min((top-bodyClassMinLog)*bodyClassSteps+int((uint(n)>>(top-3))&7), bodyClasses-1)
}

// takeBody returns an empty buffer with room for n bytes: a parked one, from
// n's floor class up to an octave above it, or else a new one. A new buffer
// is n bytes rounded up only as far as the allocator's own size class, so it
// costs no byte more than make([]byte, 0, n). That size class need not be
// one of the list's, so a buffer made for n may park in n's floor class: a
// buffer taken from there is used if it fits and goes back if it does not.
func takeBody(n int) []byte {
	lo := max(floorClass(n), 0)
	for c := lo; c <= min(lo+bodyClassSteps, bodyClasses-1); c++ {
		b, ok := bodyFree[c].Get()
		if !ok {
			continue
		}
		if cap(b) >= n {
			parkedBodyBytes.Add(-int64(cap(b)))
			return b
		}
		if !bodyFree[c].Put(b) { // only n's floor class holds buffers under n
			parkedBodyBytes.Add(-int64(cap(b)))
		}
	}
	return slices.Grow([]byte(nil), n)
}

// recycleBody parks body's buffer, at its full capacity, for a later
// takeBody: unless it is under the smallest class, its class's list is
// full, or parking it would take the parked bytes past
// maxParkedBodyBytes, in which cases the GC takes it. In race builds the
// buffer is overwritten first (freelist.Poison), parked or not.
func recycleBody(body []byte) {
	body = body[:cap(body)]
	freelist.Poison(body)
	c := floorClass(len(body))
	if c < 0 {
		return
	}
	size := int64(len(body))
	if parkedBodyBytes.Add(size) > maxParkedBodyBytes || !bodyFree[c].Put(body[:0]) {
		parkedBodyBytes.Add(-size)
	}
}
