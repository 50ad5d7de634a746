package core

import (
	"sbcrawl/internal/frontier"
)

// simpleFrontier abstracts the three unordered baselines' frontiers.
type simpleFrontier interface {
	Push(url string)
	Pop() (string, bool)
	// Peek returns up to n URLs the frontier is likely to pop soon, so the
	// staged loop can speculate on them. It removes nothing and consumes no
	// randomness, so peeking never changes what a crawl does. The order is
	// best-effort: exact for FIFO and LIFO, a 1/Len guess for Random. The
	// result may be a view of the frontier's storage, valid until the next
	// Push or Pop, and must never be modified.
	Peek(n int) []string
}

// simpleCrawler drives BFS, DFS, and RANDOM: pop a URL, fetch it, push every
// new link. No classification, no learning — targets are collected when the
// crawl happens to fetch them.
type simpleCrawler struct {
	name  string
	front func() simpleFrontier
}

// NewBFS returns the breadth-first exhaustive crawler (FIFO frontier).
func NewBFS() Crawler {
	return &simpleCrawler{name: "BFS", front: func() simpleFrontier { return &frontier.Queue{} }}
}

// NewDFS returns the depth-first crawler (LIFO frontier, robot-trap prone).
func NewDFS() Crawler {
	return &simpleCrawler{name: "DFS", front: func() simpleFrontier { return &frontier.Stack{} }}
}

// NewRandom returns the uniform-random-frontier crawler.
func NewRandom(seed int64) Crawler {
	return &simpleCrawler{name: "RANDOM", front: func() simpleFrontier { return frontier.NewRandom(seed) }}
}

// Name implements Crawler.
func (c *simpleCrawler) Name() string { return c.name }

// simpleRun is one simple crawl expressed as a staged policy.
type simpleRun struct {
	eng   *engine
	f     simpleFrontier
	steps int
}

// SelectNext implements crawlPolicy.
func (r *simpleRun) SelectNext() (string, bool) {
	u, ok := r.f.Pop()
	if !ok {
		return "", false
	}
	r.steps++
	return u, true
}

// Ingest implements crawlPolicy.
func (r *simpleRun) Ingest(_ string, pg page) {
	for _, link := range pg.Links {
		r.eng.seen[link.URL] = true
		r.f.Push(link.URL)
	}
}

// Hints implements crawlPolicy.
func (r *simpleRun) Hints(n int) []string { return r.f.Peek(n) }

// fifoHints implements fifoHinter: BFS's queue pops in Peek order and pushes
// at its tail; a stack pushes at the head it pops, and Random's Peek is a
// guess.
func (r *simpleRun) fifoHints() bool {
	_, ok := r.f.(*frontier.Queue)
	return ok
}

// Run implements Crawler via the staged loop.
func (c *simpleCrawler) Run(env *Env) (*Result, error) {
	eng, err := newEngine(env)
	if err != nil {
		return nil, err
	}
	eng.fields = 0 // links are followed by URL alone
	r := &simpleRun{eng: eng, f: c.front()}
	eng.seen[env.Root] = true
	r.f.Push(env.Root)
	eng.runStaged(r)
	return eng.result(c.name, r.steps), nil
}

// omniscient knows V* in advance and retrieves exactly the targets, the
// unreachable upper bound of Section 4.3.
type omniscient struct{}

// NewOmniscient returns the OMNISCIENT reference crawler; it requires
// Env.OracleTargets.
func NewOmniscient() Crawler { return &omniscient{} }

// Name implements Crawler.
func (omniscient) Name() string { return "OMNISCIENT" }

// targetWalk walks the oracle's target list in order; its hints are exact,
// so the pipelined OMNISCIENT crawl is pure fetch throughput.
type targetWalk struct {
	targets []string
	next    int
	steps   int
}

// SelectNext implements crawlPolicy.
func (w *targetWalk) SelectNext() (string, bool) {
	if w.next >= len(w.targets) {
		return "", false
	}
	u := w.targets[w.next]
	w.next++
	w.steps++
	return u, true
}

// Ingest implements crawlPolicy (targets carry no links to follow).
func (w *targetWalk) Ingest(string, page) {}

// Hints implements crawlPolicy.
func (w *targetWalk) Hints(n int) []string {
	end := w.next + n
	if end > len(w.targets) {
		end = len(w.targets)
	}
	return w.targets[w.next:end]
}

// fifoHints implements fifoHinter: the walk's hints are the rest of its list.
func (*targetWalk) fifoHints() bool { return true }

// Run implements Crawler.
func (omniscient) Run(env *Env) (*Result, error) {
	eng, err := newEngine(env)
	if err != nil {
		return nil, err
	}
	eng.fields = 0 // no link is followed
	w := &targetWalk{targets: env.OracleTargets}
	eng.runStaged(w)
	return eng.result("OMNISCIENT", w.steps), nil
}
