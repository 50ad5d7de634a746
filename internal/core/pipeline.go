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
	// decreasing likelihood, without mutating any crawl state (see
	// frontier.Peeker). Only consulted when prefetching is on.
	Hints(n int) []string
}

// runStaged drives a policy through the staged loop until the budget, the
// context, or the policy ends the crawl. With Env.Prefetch == 0 it is
// step-for-step the sequential engine; with a prefetch window it submits
// the policy's hints right before each blocking fetch, so the network works
// on the likely next pages while the current one is fetched and ingested.
func (e *engine) runStaged(p crawlPolicy) {
	for e.budgetLeft() {
		u, ok := p.SelectNext()
		if !ok {
			return
		}
		e.speculate(p)
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
// fetch.AutoTuner) and the window follows it, Env.Partitions times as wide;
// then the policy is asked for a window's worth of hints. With a fixed
// Env.Prefetch the window never moves. Tuning reads only speculation
// counters and writes only the window, so it can never change what the
// crawl returns.
func (e *engine) speculate(p crawlPolicy) {
	if e.prefetcher == nil {
		return
	}
	if e.tuner != nil {
		e.window = e.scale * e.tuner.Observe(e.prefetcher.Stats())
		e.prefetcher.SetWindow(e.window)
	}
	if n := e.specRoom(e.window); n > 0 {
		e.prefetcher.Hint(p.Hints(n)...)
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

// specBatch trims a list of upcoming demands to what one speculative batch
// may hold: a window's worth, within the budget.
func (e *engine) specBatch(urls []string) []string {
	return urls[:max(0, e.specRoom(min(len(urls), e.window)))]
}

// speculateGets hints the GETs a policy is about to demand one after
// another — SB's predicted targets of the page being ingested, in page
// order, from the one the loop is at. At most one window's worth is
// submitted; the caller re-submits as its cursor advances, and the prefetch
// layer skips what it already tracks.
func (e *engine) speculateGets(urls []string) {
	if e.prefetcher != nil {
		e.prefetcher.Hint(e.specBatch(urls)...)
	}
}

// speculateHeads routes upcoming HEAD probes through the speculation layer:
// the SB classifier's initial training phase labels links by strictly
// sequential HEAD requests, and hinting them here lets those round trips
// overlap — the charged HEADs are then answered from resident speculation
// (or from resident speculative GETs) instead of each paying the backend
// latency. At most one window's worth is hinted so a warm-up that ends
// mid-page does not leave a page of stale HEAD speculation behind.
func (e *engine) speculateHeads(urls []string) {
	if e.prefetcher != nil {
		e.prefetcher.HintHeads(e.specBatch(urls)...)
	}
}
