package core

// This file is the staged crawl loop shared by every strategy: the
// monolithic select→fetch→parse→update iteration of Algorithm 3/4 split
// into explicit stages so the fetch stage can be overlapped with
// speculative prefetching (Env.Prefetch). The decomposition follows the
// multi-threaded crawling literature (BUbiNG's per-agent parallelism,
// stage-decomposed crawl loops): selection and ingestion stay strictly
// sequential — they own all crawl state and all randomness — while the
// network round trips of the next likely selections proceed concurrently
// behind the fetch.Prefetcher. Results are byte-identical to the purely
// sequential loop at every prefetch width because no stage ever *reads*
// speculative state; the prefetcher is only a cache the fetch stage warms.

// crawlPolicy is the strategy-specific half of the staged loop: the select
// stage (SelectNext) and the ingest stage (Ingest). The engine owns the
// fetch stage, budget accounting, and speculation.
type crawlPolicy interface {
	// SelectNext pops the strategy's next URL — the select stage. ok=false
	// ends the crawl (empty frontier, policy exhaustion, early stop). A
	// policy performs all of its per-step bookkeeping that precedes the
	// fetch (step counting, bandit selection recording) here.
	SelectNext() (u string, ok bool)
	// Ingest consumes the fetched page for the URL SelectNext returned —
	// the ingest stage: parse/classify outcomes, frontier updates, reward
	// accounting. Not called for truncated fetches.
	Ingest(u string, pg page)
	// Hints lists up to n URLs the policy is likely to select soon, in
	// decreasing likelihood, without mutating any crawl state (a frontier's
	// Peek). Only consulted when prefetching is on.
	Hints(n int) []string
}

// fifoHinter is implemented by a policy whose Hints are its exact pop order
// and change between steps only by the pop at their head and pushes at their
// tail: BFS's queue, OMNISCIENT's target walk, TP-OFF's BFS warm-up. What one
// step's hints handed the prefetch layer then stays the head of every later
// step's, so speculate hands it only the rest.
type fifoHinter interface {
	fifoHints() bool
}

// runStaged drives a policy through the staged loop until the budget, the
// context, or the policy ends the crawl. With Env.Prefetch == 0 it is
// step-for-step the sequential engine; with a prefetch window it submits
// the policy's hints right before each blocking fetch, so the network works
// on the likely next pages while the current one is fetched and ingested.
func (e *engine) runStaged(p crawlPolicy) {
	f, _ := p.(fifoHinter)
	fifo := f != nil && f.fifoHints()
	e.settled = 0 // TP-OFF runs a second policy on the same engine
	for e.budgetLeft() {
		u, ok := p.SelectNext()
		if !ok {
			return
		}
		e.speculate(p, fifo)
		pg := e.fetchPage(u)
		if pg.Truncated {
			return
		}
		p.Ingest(u, pg)
		e.popLinks(0)
	}
}

// speculate forwards the policy's likely-next URLs to the prefetch layer.
// Under PrefetchAuto the adaptive tuner first re-evaluates the width from
// the speculation outcomes so far (AIMD over the hit rate, see
// fetch.AutoTuner) and the window follows it; then the policy is asked for
// a window's worth of hints. With a fixed Env.Prefetch the window never
// moves. Tuning reads only speculation counters and writes only the window,
// so it can never change what the crawl returns.
//
// A FIFO policy's hints that the prefetch layer already tracks are not
// handed in again: e.settled counts them, one fewer after each select stage
// has popped the head, plus the settled prefix of what is handed in (see
// fetch.Prefetcher.Hint). Each step then costs the layer what is new, not a
// window of lookups. The prefix's URLs are ones the layer would skip anyway,
// so the same URLs launch.
func (e *engine) speculate(p crawlPolicy, fifo bool) {
	if e.prefetcher == nil {
		return
	}
	if fifo && e.settled > 0 {
		e.settled-- // the select stage popped the hints' head
	}
	if e.tuner != nil {
		e.window = e.tuner.Observe(e.prefetcher.Stats())
	}
	if n := e.specRoom(e.window); n > 0 {
		hints := p.Hints(n)
		from := min(e.settled, len(hints))
		k := e.prefetcher.Hint(e.window, hints[from:]...)
		if fifo {
			e.settled = max(e.settled, from+k)
		}
	}
}

// specRoom caps a speculative batch of n fetches at what the request budget
// can still pay for. Every batch is submitted right before a demand request
// that will be charged; a response that could only be consumed after the
// budget's last request never is, so with r requests left at most r−1 are
// worth launching.
func (e *engine) specRoom(n int) int {
	if e.env.MaxRequests > 0 {
		n = min(n, e.env.MaxRequests-e.meter.Requests-1)
	}
	return n
}

// demandRoom is how many exchanges one batch of a policy's decided demands
// may hold — SB's predicted targets of the page being ingested, its warm-up
// HEAD probes, the bandit's next draw behind them: the window's ceiling (the
// fixed width, or fetch.AutoMaxWindow under PrefetchAuto) within the budget
// (see specRoom); 0 for a sequential crawl. The ceiling is also the batch's
// in-flight bound (Prefetcher.HintDemands): the tuned width, which sizes the
// policy's guesses (Hints), does not narrow it, and with a fixed
// Env.Prefetch the two are the same.
func (e *engine) demandRoom() int {
	if e.prefetcher == nil {
		return 0
	}
	return e.specRoom(e.ceiling)
}
