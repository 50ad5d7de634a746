// Package frontier provides the crawl-frontier data structures behind each
// crawler of the paper: FIFO (BFS), LIFO (DFS), uniform random (RANDOM),
// score-ordered priority queue (FOCUSED, TP-OFF), and the action-grouped
// frontier of SB-CLASSIFIER, where each bandit action owns a set of links
// and a link is drawn uniformly at random from the chosen action (Sec. 3.2).
//
// Every frontier can Peek at the URLs it is likely to pop soon without
// removing them and without consuming any randomness, so peeking can never
// change what a crawl does. The result may be a view of the frontier's own
// storage: it is valid until the next Push or Pop and must never be
// modified.
package frontier

import (
	"container/heap"
	"math/rand"
	"slices"

	"sbcrawl/internal/freelist"
)

// Queue is a FIFO frontier (breadth-first crawling). The zero value is
// ready to use.
type Queue struct {
	items []string
	head  int
}

// Push appends a URL.
func (q *Queue) Push(url string) { q.items = append(q.items, url) }

// Pop removes and returns the oldest URL.
func (q *Queue) Pop() (string, bool) {
	if q.head >= len(q.items) {
		return "", false
	}
	u := q.items[q.head]
	q.items[q.head] = "" // release the string
	q.head++
	// Compact occasionally so memory stays proportional to live items.
	if q.head > 1024 && q.head*2 > len(q.items) {
		q.items = append([]string(nil), q.items[q.head:]...)
		q.head = 0
	}
	return u, true
}

// Len returns the number of queued URLs.
func (q *Queue) Len() int { return len(q.items) - q.head }

// Peek returns the next n URLs in pop order, as a read-only view of the
// queue (capacity-clipped, so an append by the caller cannot write into it).
func (q *Queue) Peek(n int) []string {
	if n > q.Len() {
		n = q.Len()
	}
	if n <= 0 {
		return nil
	}
	return q.items[q.head : q.head+n : q.head+n]
}

// Stack is a LIFO frontier (depth-first crawling). The zero value is ready
// to use.
type Stack struct {
	items []string
}

// Push appends a URL.
func (s *Stack) Push(url string) { s.items = append(s.items, url) }

// Pop removes and returns the most recent URL.
func (s *Stack) Pop() (string, bool) {
	if len(s.items) == 0 {
		return "", false
	}
	u := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return u, true
}

// Peek returns the next n URLs in pop order (top first).
func (s *Stack) Peek(n int) []string {
	if n > len(s.items) {
		n = len(s.items)
	}
	if n <= 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := len(s.items) - 1; i >= len(s.items)-n; i-- {
		out = append(out, s.items[i])
	}
	return out
}

// Random is a frontier that pops a uniformly random member.
type Random struct {
	items []string
	rng   *rand.Rand
}

// NewRandom builds a random frontier with a deterministic seed, on a source
// of its own: a Random parks nothing, so it takes nothing parked either.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Push appends a URL.
func (r *Random) Push(url string) { r.items = append(r.items, url) }

// Pop removes and returns a uniformly random URL (swap-remove, O(1)).
func (r *Random) Pop() (string, bool) {
	n := len(r.items)
	if n == 0 {
		return "", false
	}
	i := r.rng.Intn(n)
	u := r.items[i]
	r.items[i] = r.items[n-1]
	r.items = r.items[:n-1]
	return u, true
}

// Peek returns n members as guesses. Which member the next Pop draws cannot
// be known without consuming the RNG, so Peek returns an
// arbitrary-but-deterministic n members (each a 1/Len guess); the prefetch
// layer keeps unconsumed speculation around, so even "wrong" guesses pay off
// when their URL is drawn later.
func (r *Random) Peek(n int) []string {
	if n > len(r.items) {
		n = len(r.items)
	}
	if n <= 0 {
		return nil
	}
	return append([]string(nil), r.items[len(r.items)-n:]...)
}

// Priority is a max-score frontier. Ties pop in insertion order, keeping
// FOCUSED deterministic.
type Priority struct {
	h scoredHeap
	n int64 // insertion counter for stable ordering
}

type scoredItem struct {
	url   string
	score float64
	seq   int64
}

type scoredHeap []scoredItem

func (h scoredHeap) Len() int { return len(h) }
func (h scoredHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].seq < h[j].seq
}
func (h scoredHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *scoredHeap) Push(x interface{}) { *h = append(*h, x.(scoredItem)) }
func (h *scoredHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Push inserts a URL with its score.
func (p *Priority) Push(url string, score float64) {
	p.n++
	heap.Push(&p.h, scoredItem{url: url, score: score, seq: p.n})
}

// Pop removes and returns the highest-scored URL.
func (p *Priority) Pop() (string, float64, bool) {
	if p.h.Len() == 0 {
		return "", 0, false
	}
	it := heap.Pop(&p.h).(scoredItem)
	return it.url, it.score, true
}

// Peek returns the n highest-scored URLs in pop order, without disturbing
// the heap. A pruned descent over the heap structure — the
// next-best item is always the root or a child of one already taken — costs
// O(n²) for the small prefetch widths n, independent of the heap size.
func (p *Priority) Peek(n int) []string {
	if n > p.h.Len() {
		n = p.h.Len()
	}
	if n <= 0 {
		return nil
	}
	cand := make([]int, 1, n+2) // candidate heap indices; stays ≤ n+1 long
	cand[0] = 0
	out := make([]string, 0, n)
	for len(out) < n {
		bi := 0
		for i := 1; i < len(cand); i++ {
			if less(p.h[cand[i]], p.h[cand[bi]]) {
				bi = i
			}
		}
		idx := cand[bi]
		cand[bi] = cand[len(cand)-1]
		cand = cand[:len(cand)-1]
		out = append(out, p.h[idx].url)
		if l := 2*idx + 1; l < p.h.Len() {
			cand = append(cand, l)
		}
		if r := 2*idx + 2; r < p.h.Len() {
			cand = append(cand, r)
		}
	}
	return out
}

// less reports whether a pops before b (higher score, then earlier seq).
func less(a, b scoredItem) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.seq < b.seq
}

// Rescore recomputes every held URL's score with fn and restores heap order
// (used when FOCUSED retrains its classifier).
func (p *Priority) Rescore(fn func(url string) float64) {
	for i := range p.h {
		p.h[i].score = fn(p.h[i].url)
	}
	heap.Init(&p.h)
}

// Grouped is the action-grouped frontier of SB-CLASSIFIER: every frontier
// link belongs to exactly one action, the bandit picks an action, and the
// link is drawn uniformly at random within it. An action with no remaining
// links is asleep.
//
// Actions are small dense integers from −1 up (SB's are action-index IDs,
// TP-OFF's group IDs with −1 its zero bucket), so the links live in one
// slice indexed by action: slot a+1 holds action a's. An action that empties
// keeps its slot's capacity for its next links, and a finished frontier
// parks the whole table for the next one (Release).
type Grouped struct {
	byAction [][]string
	total    int
	rng      *rand.Rand
	src      *countedSource
	seed     int64
}

// NewGrouped builds an action-grouped frontier with a deterministic seed, on
// a released frontier's source and action table when one is waiting: Seed
// resets a source's whole state, so the stream is rand.NewSource's.
func NewGrouped(seed int64) *Grouped {
	p, ok := groupedFree.Get()
	if ok {
		p.src.Seed(seed)
	} else {
		p.src = rand.NewSource(seed)
	}
	src := &countedSource{src: p.src}
	return &Grouped{byAction: p.byAction, rng: rand.New(src), src: src, seed: seed}
}

// Release parks the frontier's generator source and, while under the
// maxParked bounds, its action table for the next frontier. The frontier
// must not be used afterwards; one used anyway panics on its next draw
// rather than share a source with another frontier.
func (g *Grouped) Release() {
	if g.src == nil {
		return
	}
	p := parkedGrouped{src: g.src.src}
	g.rng, g.src = nil, nil
	all := g.byAction[:cap(g.byAction)]
	links := 0
	for _, l := range all {
		links += cap(l)
	}
	if len(all) <= maxParkedActions && links <= maxParkedLinks {
		for i, l := range all {
			clear(l[:cap(l)]) // pin no URL of this crawl
			all[i] = l[:0]
		}
		p.byAction = all[:0]
	}
	groupedFree.Put(p)
	g.byAction, g.total = nil, 0
}

// The maxParked bounds cap what a parked action table may hold: the crawls
// it serves are short and their tables small (a few hundred link slots over
// a few dozen actions), and one an exhausting crawl grew past them is left
// to the GC. At the bounds a table pins 24 KB of slots and 128 KB of links.
const (
	maxParkedActions = 1 << 10 // action slots
	maxParkedLinks   = 1 << 13 // link slots over all actions
)

// parkedGrouped is what a released Grouped leaves the next NewGrouped: its
// generator source (~4.9 KB), and its action table, every slot emptied with
// its capacity kept, or none when it was over the maxParked bounds.
type parkedGrouped struct {
	src      rand.Source
	byAction [][]string
}

var groupedFree = freelist.New[parkedGrouped]()

// links returns the action's links: none for an action never pushed to.
func (g *Grouped) links(action int) []string {
	if s := action + 1; s >= 0 && s < len(g.byAction) {
		return g.byAction[s]
	}
	return nil
}

// Push adds a URL under the given action, which must be at least −1.
func (g *Grouped) Push(action int, url string) {
	s := action + 1
	if s >= len(g.byAction) {
		// Slots past the length are empty: new, or emptied when parked.
		g.byAction = slices.Grow(g.byAction, s+1-len(g.byAction))[:s+1]
	}
	g.byAction[s] = append(g.byAction[s], url)
	g.total++
}

// PopFrom removes and returns a uniformly random URL of the action.
func (g *Grouped) PopFrom(action int) (string, bool) {
	n := len(g.links(action))
	if n == 0 {
		return "", false
	}
	return g.popAt(action, g.rng.Intn(n))
}

// popAt swap-removes the action's link i; the slot keeps its capacity.
func (g *Grouped) popAt(action, i int) (string, bool) {
	links := g.byAction[action+1]
	n := len(links)
	u := links[i]
	links[i] = links[n-1]
	links[n-1] = ""
	g.byAction[action+1] = links[:n-1]
	g.total--
	return u, true
}

// Awake returns, in increasing order, the actions that still hold links —
// the availability indicator 1_a(t) of the sleeping bandit.
func (g *Grouped) Awake() []int { return g.AppendAwake(nil) }

// AppendAwake appends Awake's actions to dst and returns the extended slice,
// so a caller that keeps dst's array allocates nothing once it is large
// enough.
func (g *Grouped) AppendAwake(dst []int) []int {
	for s, links := range g.byAction {
		if len(links) > 0 {
			dst = append(dst, s-1)
		}
	}
	return dst
}

// ActionLen returns how many links the action currently holds.
func (g *Grouped) ActionLen(action int) int { return len(g.links(action)) }

// Len returns the total number of frontier links.
func (g *Grouped) Len() int { return g.total }

// PeekFrom returns exactly the URL the next PopFrom(action) will draw, as
// long as the action's link set is unchanged until then (a Push to the
// action changes the draw's modulus, and any other draw in between consumes
// the value this one was read from). It reads the generator's next value
// through the countedSource lookahead, so no randomness is consumed: Draws,
// snapshots and every later Pop are what they would have been without the
// call. ok=false when the action is asleep, or in the ~n/2³¹ case where
// Intn would reject the buffered value and draw again.
func (g *Grouped) PeekFrom(action int) (string, bool) {
	links := g.links(action)
	i, ok := g.src.peekIntn(len(links))
	if !ok {
		return "", false
	}
	return links[i], true
}

// Peek returns the exact next draw (PeekFrom) of each awake action, in
// increasing action order, up to n URLs — whichever action is served next,
// its draw is in the list while fewer than n are awake.
func (g *Grouped) Peek(n int) []string {
	if n <= 0 || g.total == 0 {
		return nil
	}
	out := make([]string, 0, min(n, len(g.byAction)))
	for _, a := range g.Awake() {
		if len(out) == n {
			break
		}
		if u, ok := g.PeekFrom(a); ok {
			out = append(out, u)
		}
	}
	return out
}
