package fetch

import "sync"

// Prefetcher is the speculative-fetch layer of the pipelined crawl engine:
// it keeps a bounded number of asynchronous GETs in flight for the URLs a
// strategy is most likely to select next, so the engine's own sequential
// fetch finds the response already resident instead of paying a network
// round trip.
//
// Because fetch results are pure functions of the URL (the simulated server
// is deterministic, the replay database is append-once), a Prefetcher is
// strictly a cache warm-up: Get(u) returns exactly what Backend.Get(u)
// would, in the exact order the engine asks, so crawl results are
// byte-identical to the sequential engine at every window width. Politeness
// is untouched — speculative GETs go through the same backend chain, so a
// live fetcher's Registry spaces them like any other request.
//
// Hints come in two kinds, each batch under an in-flight bound its caller
// passes. Hint takes a strategy's guesses at what it will select next (the
// engine bounds them by its window, which the adaptive controller widens or
// narrows online as the hint accuracy becomes visible in Stats).
// HintDemands takes exchanges the crawl loop has already decided to issue,
// in the order it will issue them. Beyond GETs, the layer speculates on two
// more fronts:
//
//   - HEAD probes (a Demand with Head set): the classifier warm-up's strictly
//     sequential HEAD round trips overlap the same way. A demand Head is
//     answered from a speculated HEAD, or — without consuming it — from a
//     resident speculative GET, whose status line and headers are exactly
//     what a HEAD would have returned.
//   - A fleet-shared store, fixed at construction: several crawls of one
//     host publish their completed GETs into a URL-keyed cache and serve
//     each other from it, BUbiNG-style, instead of re-fetching.
//
// Speculative responses are consumed at most once: a Get for a hinted URL
// removes it from the cache, and a hint for an already-tracked URL is a
// no-op. URLs that are hinted but never fetched are evicted oldest-first
// once the store outgrows its cap, bounding memory by O(in-flight bound).
//
// Speculative fetches run on the Prefetcher's own workers, BUbiNG-style
// long-lived fetching goroutines rather than one per request. A launch hands
// its job to the most recently parked idle worker over that worker's
// one-slot channel and starts a worker only when none is idle, so the
// workers never outnumber the peak number of fetches in flight. A worker
// parks again once its job lands and exits at Close. A job's entry lands
// under the Prefetcher's lock (its landed flag, with one sync.Cond for the
// Gets and Heads waiting on any entry), and a consumed or evicted entry goes
// onto a free slice the next launch reuses: once warm, a launch allocates
// no goroutine, channel or entry.
//
// The backend must be safe for concurrent use (Sim, Latency, the
// mutex-guarded Replay, and HTTP all are). A Prefetcher is itself safe for
// concurrent use, though the engine drives it from one goroutine.
type Prefetcher struct {
	backend Fetcher
	shared  SharedStore // fleet-level speculation cache; nil when solo

	mu      sync.Mutex
	landing sync.Cond // on mu; broadcast whenever an entry lands
	store   map[string]*speculative
	order   []string            // hint arrival order, for oldest-first eviction
	spent   map[string]struct{} // consumed or evicted: never speculate again
	free    []*speculative      // consumed or evicted entries, zeroed for reuse
	idle    []chan job          // parked workers, the most recently parked last
	pending int                 // speculative fetches currently in flight
	closed  bool
	wg      sync.WaitGroup // one per worker
	stats   PrefetchStats
}

// speculative is one in-flight or landed speculative fetch. Its fields are
// guarded by the Prefetcher's mu.
type speculative struct {
	resp   Response
	err    error
	landed bool
}

// job is one speculative fetch handed to a worker: the URL, its verb, and
// the entry its answer lands in.
type job struct {
	url  string
	head bool
	s    *speculative
}

// PrefetchStats counts the speculation outcomes of one crawl.
type PrefetchStats struct {
	// Launched is the number of speculative fetches started (GET + HEAD).
	Launched int
	// Hits is the number of Gets answered from speculation (the local
	// store or the fleet-shared cache).
	Hits int
	// Misses is the number of Gets that fell through to the backend.
	Misses int
	// Evicted is the number of speculative results dropped unconsumed.
	Evicted int
	// HeadHits is the number of Heads answered from speculation: a
	// speculated HEAD, a resident speculative GET (status and headers
	// only), or the fleet-shared cache.
	HeadHits int
	// SharedHits is the number of lookups (GET or HEAD) answered by the
	// fleet-shared cache rather than this crawl's own speculation.
	SharedHits int
}

// HitRate is Hits over all Gets, the signal the adaptive controller tunes
// the engine's window by. Zero when no Get has been issued.
func (s PrefetchStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// SharedStore is the fleet-level speculation cache a Prefetcher may consult
// and feed (see fleet.SpecCache): a URL-keyed map of completed GET
// responses shared by the crawls of one fleet. Implementations must be safe
// for concurrent use and must only ever return responses that are valid for
// the URL across every sharing crawl (the same site content).
type SharedStore interface {
	// Lookup returns the stored response for the URL, if any. It serves
	// demand traffic and may be counted by the implementation.
	Lookup(url string) (Response, bool)
	// Contains reports residency without serving: the hint scan probes it
	// on every batch, so implementations should keep it out of their
	// demand hit/miss accounting.
	Contains(url string) bool
	// Publish offers a completed GET response for other crawls to reuse.
	// Implementations may drop it (cache full, duplicate).
	Publish(url string, resp Response)
}

// storedFactor bounds how many completed-but-unconsumed speculative
// responses may accumulate, as a multiple of a batch's in-flight bound.
const storedFactor = 8

// headKeyPrefix namespaces speculative HEAD entries in the store, so a HEAD
// probe and a GET for one URL are tracked (and spent) independently. URLs
// never start with a NUL byte.
const headKeyPrefix = "\x00HEAD\x00"

func headKey(u string) string { return headKeyPrefix + u }

// NewPrefetcher wraps a backend with a speculation layer. A non-nil shared
// is the fleet-level speculation cache: Get and Head misses consult it before
// the backend, and completed GETs are published into it.
func NewPrefetcher(backend Fetcher, shared SharedStore) *Prefetcher {
	p := &Prefetcher{
		backend: backend,
		shared:  shared,
		store:   make(map[string]*speculative),
		spent:   make(map[string]struct{}),
	}
	p.landing.L = &p.mu
	return p
}

// Hint submits speculative GET candidates, most-likely-next first, while
// fewer than limit speculative fetches are in flight. A smaller limit than
// the last batch's never abandons a running fetch: the in-flight count
// drains to it as fetches land. URLs already tracked — in flight, resident,
// or speculated before (consumed or evicted) — are skipped, as are URLs the
// fleet-shared cache already holds (a guaranteed hit needs no fetch). The
// scan stops at the first URL the in-flight bound refuses: the count only
// drops when a fetch lands, under the lock the batch holds, so nothing later
// in the batch could launch. A shared-resident URL or a full store does not
// stop it: a full store evicts its oldest landed entry. Hints are advisory
// and never queued.
//
// Hint returns the batch's settled prefix: the length of its leading run of
// URLs that are now tracked, launched by this batch or before. Tracking is
// never undone, so a caller whose hints only lose their head and grow at
// their tail between batches need not hand the prefix in again.
func (p *Prefetcher) Hint(limit int, urls ...string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.beginHintLocked(limit) {
		return 0
	}
	settled := len(urls)
	for i, u := range urls {
		out := p.launchLocked(u, false, limit)
		if out != launchTracked {
			settled = min(settled, i)
		}
		if out == launchBound {
			break
		}
	}
	return settled
}

// Demand is one exchange a crawl loop will issue: a GET of URL, or its HEAD
// probe when Head is set.
type Demand struct {
	URL  string
	Head bool
}

// HintDemands submits exchanges the caller will demand next, in the order it
// will demand them, under the same dedup, shared-cache and eviction rules as
// Hint: none starts once limit speculative fetches are in flight, counting
// those Hint started, and the scan stops at the first demand that bound
// refuses. The caller sizes the batch and the bound, so the engine's window,
// which the adaptive controller narrows when guesses miss, does not narrow a
// batch of exchanges that are already decided. A HEAD
// whose URL has a tracked GET is skipped: a resident speculative GET answers
// the HEAD by itself.
func (p *Prefetcher) HintDemands(limit int, demands ...Demand) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.beginHintLocked(limit) {
		return
	}
	for _, d := range demands {
		if p.launchLocked(d.URL, d.Head, limit) == launchBound {
			return
		}
	}
}

// storeCap bounds the completed-but-unconsumed responses a batch under the
// given in-flight bound may leave behind.
func storeCap(limit int) int { return limit * storedFactor }

// beginHintLocked opens a batch under the in-flight bound limit, reporting
// false once the Prefetcher is closed.
func (p *Prefetcher) beginHintLocked(limit int) bool {
	if p.closed {
		return false
	}
	// Amortized cleanup: consumed entries leave holes in the order queue;
	// drop them once they outnumber the live entries plus the store cap.
	if len(p.order) > 2*len(p.store)+storeCap(limit) {
		p.sweepOrderLocked(false)
	}
	return true
}

// launchOutcome is what one URL of a batch came to.
type launchOutcome int

const (
	// launchTracked: launched now, or in flight, resident or spent before.
	launchTracked launchOutcome = iota
	// launchSkipped: not tracked, and the batch goes on — a shared-resident
	// URL (the shared cache evicts), or a HEAD a tracked GET answers (the GET
	// may be consumed first).
	launchSkipped
	// launchBound: limit fetches are in flight, and nothing later in the
	// batch can launch.
	launchBound
)

// launchLocked starts one speculative fetch unless the URL is tracked, spent
// or shared-resident, or limit fetches are in flight. A store at its cap
// evicts its oldest landed entry first; one always exists, since fewer than
// limit of the store's entries are in flight and the cap is storedFactor
// times limit.
func (p *Prefetcher) launchLocked(u string, head bool, limit int) launchOutcome {
	key := u
	if head {
		key = headKey(u)
		// A tracked GET serves the HEAD on its own (see Head).
		if _, ok := p.store[u]; ok {
			return launchSkipped
		}
	}
	if _, ok := p.store[key]; ok {
		return launchTracked
	}
	if _, ok := p.spent[key]; ok {
		return launchTracked
	}
	if p.shared != nil && p.shared.Contains(u) {
		return launchSkipped // Get/Head will be served from the shared cache
	}
	if p.pending >= limit {
		return launchBound
	}
	if len(p.store) >= storeCap(limit) {
		p.sweepOrderLocked(true)
	}
	var s *speculative
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		s = new(speculative)
	}
	p.store[key] = s
	p.order = append(p.order, key)
	p.pending++
	p.stats.Launched++
	j := job{url: u, head: head, s: s}
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		w <- j // a parked worker's slot is empty: the send never blocks
	} else {
		w := make(chan job, 1)
		w <- j
		p.wg.Add(1)
		go p.work(w)
	}
	return launchTracked
}

// sweepOrderLocked drops consumed holes from the order queue, keeping live
// entries in arrival order. With evict it also drops the oldest landed,
// unconsumed speculative response (in-flight entries are kept: a running
// fetch cannot be abandoned).
func (p *Prefetcher) sweepOrderLocked(evict bool) {
	w := 0
	for _, k := range p.order {
		s, ok := p.store[k]
		if !ok { // consumed: drop the hole
			continue
		}
		if evict && s.landed {
			p.retireLocked(k)
			p.recycleLocked(s)
			p.stats.Evicted++
			evict = false
			continue
		}
		p.order[w] = k
		w++
	}
	p.order = p.order[:w]
}

// retireLocked removes an entry from the store and marks its key spent.
func (p *Prefetcher) retireLocked(key string) {
	delete(p.store, key)
	p.spent[key] = struct{}{}
}

// recycleLocked parks a landed entry that has left the store, emptied, for
// the next launch. A Head that still holds it re-checks the store (see Head).
func (p *Prefetcher) recycleLocked(s *speculative) {
	*s = speculative{}
	p.free = append(p.free, s)
}

// consumeLocked takes a resident entry's answer: it retires the entry at
// once, so no other caller finds it, waits for it to land and recycles it.
func (p *Prefetcher) consumeLocked(key string, s *speculative) (Response, error) {
	p.retireLocked(key)
	for !s.landed {
		p.landing.Wait()
	}
	resp, err := s.resp, s.err
	p.recycleLocked(s)
	return resp, err
}

// work is one worker: it runs each job handed over jobs, parking between
// them, until Close closes its channel or a job lands after Close.
func (p *Prefetcher) work(jobs chan job) {
	defer p.wg.Done()
	for j := range jobs {
		if !p.fetch(j, jobs) {
			return
		}
	}
}

// fetch runs one speculative job, lands its answer and parks its worker. It
// reports false, parking nothing, once the Prefetcher is closed.
func (p *Prefetcher) fetch(j job, jobs chan job) bool {
	var resp Response
	var err error
	if j.head {
		resp, err = p.backend.Head(j.url)
	} else {
		resp, err = p.backend.Get(j.url)
	}
	p.mu.Lock()
	j.s.resp, j.s.err, j.s.landed = resp, err, true
	p.pending--
	parked := !p.closed
	if parked {
		p.idle = append(p.idle, jobs)
	}
	p.mu.Unlock()
	p.landing.Broadcast()
	if !j.head {
		p.publish(j.url, resp, err)
	}
	return parked
}

// publish offers a completed GET to the fleet-shared cache, if there is one.
// Failures never enter it: a momentary 503 must not be replayed to other
// crawls as the page's truth.
func (p *Prefetcher) publish(u string, resp Response, err error) {
	if p.shared != nil && err == nil && !TransientResult(resp, err) {
		p.shared.Publish(u, resp)
	}
}

// Get implements Fetcher: a hinted URL is answered from the speculative
// store (blocking until its fetch lands, still one round trip ahead of the
// sequential engine) or the fleet-shared cache; anything else falls through
// to the backend, whose successful response is published for the rest of
// the fleet.
func (p *Prefetcher) Get(u string) (Response, error) {
	p.mu.Lock()
	if s := p.store[u]; s != nil {
		p.stats.Hits++
		resp, err := p.consumeLocked(u, s)
		p.mu.Unlock()
		if !TransientResult(resp, err) {
			return resp, err
		}
		// Never serve a speculative failure as the demand result: the
		// fault may have been momentary, so the demand path gets a fresh
		// attempt (which retries on its own below this layer), shared like
		// any other demand fetch.
		return p.demand(u)
	}
	if p.shared != nil {
		if resp, ok := p.shared.Lookup(u); ok {
			p.spent[u] = struct{}{} // a shared hit never needs speculation
			p.stats.Hits++
			p.stats.SharedHits++
			p.mu.Unlock()
			return resp, nil
		}
	}
	p.stats.Misses++
	p.mu.Unlock()
	return p.demand(u)
}

// demand fetches u from the backend for the demand path and publishes the
// answer for the rest of the fleet.
func (p *Prefetcher) demand(u string) (Response, error) {
	resp, err := p.backend.Get(u)
	p.publish(u, resp, err)
	return resp, err
}

// Head implements Fetcher. A speculated HEAD is consumed like a speculative
// GET; failing that, a resident speculative GET answers the probe without
// being consumed — its status line and headers are exactly what the backend
// HEAD would return — and the fleet-shared cache is consulted last before
// falling through to the backend.
func (p *Prefetcher) Head(u string) (Response, error) {
	hk := headKey(u)
	p.mu.Lock()
	if s := p.store[hk]; s != nil {
		resp, err := p.consumeLocked(hk, s)
		served := !TransientResult(resp, err)
		if served && err == nil {
			p.stats.HeadHits++
		}
		p.mu.Unlock()
		if served {
			return resp, err
		}
		// A speculative HEAD failure is not a demand answer (see Get).
		return p.backend.Head(u)
	}
	if s := p.store[u]; s != nil {
		// The GET stays resident; only its headers are read. While this
		// waits, a Get may consume the entry and a launch reuse it, so
		// every wake re-checks that it is still u's: once it is gone, the
		// probe goes on as if no GET had been resident.
		for p.store[u] == s && !s.landed {
			p.landing.Wait()
		}
		if p.store[u] == s {
			resp, err := s.resp, s.err
			if err == nil && !TransientResult(resp, err) {
				p.stats.HeadHits++
				p.mu.Unlock()
				return headOf(resp), nil
			}
			p.mu.Unlock()
			return p.backend.Head(u)
		}
	}
	if p.shared != nil {
		if resp, ok := p.shared.Lookup(u); ok {
			p.stats.HeadHits++
			p.stats.SharedHits++
			p.mu.Unlock()
			return headOf(resp), nil
		}
	}
	p.mu.Unlock()
	return p.backend.Head(u)
}

// headOf projects a GET response onto what the backend's HEAD would have
// returned: the same status line and headers, no body and no banned-MIME
// interruption mark (there was no body to interrupt).
func headOf(resp Response) Response {
	resp.Body = nil
	resp.Interrupted = false
	return resp
}

// Close stops accepting hints and blocks until every in-flight speculative
// fetch has completed and every worker has exited, so the backend is
// quiescent when the crawl returns (required by fetchers that are reused
// across sequential crawls, e.g. the experiments' shared Replay database).
// Parked workers end here; a busy one ends when its job lands.
func (p *Prefetcher) Close() {
	p.mu.Lock()
	p.closed = true
	for _, w := range p.idle {
		close(w)
	}
	p.idle = nil
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats snapshots the speculation counters.
func (p *Prefetcher) Stats() PrefetchStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
