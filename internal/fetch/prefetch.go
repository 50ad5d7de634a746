package fetch

import "sync"

// Prefetcher is the speculative-fetch layer of the pipelined crawl engine:
// it keeps a bounded window of asynchronous GETs in flight for the URLs a
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
// Hints come in two kinds. Hint takes a strategy's guesses at what it will
// select next, launched while the in-flight window has room. HintDemands
// takes exchanges the crawl loop has already decided to issue, in the order
// it will issue them, under a bound the caller passes instead of the window.
// Beyond GETs, the layer speculates on two more fronts:
//
//   - HEAD probes (a Demand with Head set): the classifier warm-up's strictly
//     sequential HEAD round trips overlap the same way. A demand Head is
//     answered from a speculated HEAD, or — without consuming it — from a
//     resident speculative GET, whose status line and headers are exactly
//     what a HEAD would have returned.
//   - A fleet-shared store (SetShared): several crawls of one host publish
//     their completed GETs into a URL-keyed cache and serve each other from
//     it, BUbiNG-style, instead of re-fetching.
//
// The in-flight window is mutable (SetWindow): the adaptive speculation
// controller widens or narrows it online as the strategy's hint accuracy
// becomes visible in Stats. It gates Hint only.
//
// Speculative responses are consumed at most once: a Get for a hinted URL
// removes it from the cache, and a hint for an already-tracked URL is a
// no-op. URLs that are hinted but never fetched are evicted oldest-first
// once the store outgrows its cap, bounding memory by O(in-flight bound).
//
// The backend must be safe for concurrent use (Sim, Latency, the
// mutex-guarded Replay, and HTTP all are). A Prefetcher is itself safe for
// concurrent use, though the engine drives it from one goroutine.
type Prefetcher struct {
	backend Fetcher

	mu      sync.Mutex
	window  int         // in-flight cap; mutable via SetWindow
	shared  SharedStore // fleet-level speculation cache; nil when solo
	store   map[string]*speculative
	order   []string            // hint arrival order, for oldest-first eviction
	spent   map[string]struct{} // consumed or evicted: never speculate again
	pending int                 // speculative fetches currently in flight
	closed  bool
	wg      sync.WaitGroup
	stats   PrefetchStats
}

// speculative is one in-flight or completed speculative fetch.
type speculative struct {
	done chan struct{}
	resp Response
	err  error
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
// the window by. Zero when no Get has been issued.
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
// responses may accumulate, as a multiple of the in-flight window.
const storedFactor = 8

// headKeyPrefix namespaces speculative HEAD entries in the store, so a HEAD
// probe and a GET for one URL are tracked (and spent) independently. URLs
// never start with a NUL byte.
const headKeyPrefix = "\x00HEAD\x00"

func headKey(u string) string { return headKeyPrefix + u }

// NewPrefetcher wraps a backend with a speculative window of the given
// width. A width < 1 is clamped to 1 (Prefetch == 0 should simply not build
// a Prefetcher).
func NewPrefetcher(backend Fetcher, window int) *Prefetcher {
	if window < 1 {
		window = 1
	}
	return &Prefetcher{
		backend: backend,
		window:  window,
		store:   make(map[string]*speculative),
		spent:   make(map[string]struct{}),
	}
}

// SetShared attaches the fleet-level speculation cache: Get and Head misses
// consult it before the backend, and completed GETs are published into it.
func (p *Prefetcher) SetShared(s SharedStore) {
	p.mu.Lock()
	p.shared = s
	p.mu.Unlock()
}

// SetWindow resizes the in-flight window (clamped to ≥ 1). Narrowing never
// abandons a running fetch — the window drains to the new width as in-flight
// fetches land; widening takes effect at the next Hint. HintDemands brings
// its own bound and ignores the width.
func (p *Prefetcher) SetWindow(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	p.window = n
	p.mu.Unlock()
}

// Window returns the current in-flight window width.
func (p *Prefetcher) Window() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.window
}

// Hint submits speculative GET candidates, most-likely-next first, while
// fewer than the window's width are in flight. URLs already tracked — in
// flight, resident, or speculated before (consumed or evicted) — are skipped,
// as are URLs the fleet-shared cache already holds (a guaranteed hit needs no
// fetch). The whole batch is always scanned; a full in-flight window (or a
// store whose every entry is still in flight) only stops further launches,
// never the scan, so cost-free skips late in the batch are still taken.
// Hints are advisory and never queued.
func (p *Prefetcher) Hint(urls ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.beginHintLocked(p.window) {
		return
	}
	for _, u := range urls {
		p.launchLocked(u, false, p.window)
	}
}

// Demand is one exchange a crawl loop will issue: a GET of URL, or its HEAD
// probe when Head is set.
type Demand struct {
	URL  string
	Head bool
}

// HintDemands submits exchanges the caller will demand next, in the order it
// will demand them, under the same dedup, shared-cache and eviction rules as
// Hint. What bounds the launches is limit, not the window: none starts once
// limit speculative fetches are in flight, counting those Hint started. The
// caller sizes the batch and the bound; the window, which the adaptive
// controller narrows when guesses miss, does not narrow a batch of exchanges
// that are already decided. A HEAD whose URL has a tracked GET is skipped: a
// resident speculative GET answers the HEAD by itself.
func (p *Prefetcher) HintDemands(limit int, demands ...Demand) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.beginHintLocked(limit) {
		return
	}
	for _, d := range demands {
		p.launchLocked(d.URL, d.Head, limit)
	}
}

// storeCap bounds the completed-but-unconsumed responses a batch under the
// given in-flight bound may leave behind.
func (p *Prefetcher) storeCap(limit int) int {
	return max(p.window, limit) * storedFactor
}

// beginHintLocked opens a batch under the in-flight bound limit, reporting
// false once the Prefetcher is closed.
func (p *Prefetcher) beginHintLocked(limit int) bool {
	if p.closed {
		return false
	}
	// Amortized cleanup: consumed entries leave holes in the order queue;
	// drop them once they outnumber the live entries plus the store cap.
	if len(p.order) > 2*len(p.store)+p.storeCap(limit) {
		p.compactOrderLocked()
	}
	return true
}

// launchLocked starts one speculative fetch unless the URL is tracked, spent
// or shared-resident, limit fetches are in flight, or the store is full of
// in-flight entries.
func (p *Prefetcher) launchLocked(u string, head bool, limit int) {
	key := u
	if head {
		key = headKey(u)
		// A tracked GET serves the HEAD on its own (see Head).
		if _, ok := p.store[u]; ok {
			return
		}
	}
	if _, ok := p.store[key]; ok {
		return
	}
	if _, ok := p.spent[key]; ok {
		return
	}
	if p.shared != nil && p.shared.Contains(u) {
		return // Get/Head will be served from the shared cache
	}
	if p.pending >= limit {
		return // bound reached: stop launching, keep scanning
	}
	if len(p.store) >= p.storeCap(limit) && !p.evictOldestLocked() {
		return // store full of in-flight entries: nothing to free
	}
	s := &speculative{done: make(chan struct{})}
	p.store[key] = s
	p.order = append(p.order, key)
	p.pending++
	p.stats.Launched++
	p.wg.Add(1)
	go p.fetch(u, head, s)
}

// compactOrderLocked drops consumed holes from the order queue, keeping
// live entries in arrival order.
func (p *Prefetcher) compactOrderLocked() {
	w := 0
	for _, u := range p.order {
		if _, ok := p.store[u]; ok {
			p.order[w] = u
			w++
		}
	}
	p.order = p.order[:w]
}

// evictOldestLocked drops the oldest completed, unconsumed speculative
// response, compacting consumed holes along the way (in-flight entries are
// kept: a running fetch cannot be abandoned). It reports false when every
// stored entry is still in flight.
func (p *Prefetcher) evictOldestLocked() bool {
	w := 0
	evicted := false
	for _, u := range p.order {
		s, ok := p.store[u]
		if !ok { // consumed: drop the hole
			continue
		}
		if !evicted {
			select {
			case <-s.done:
				delete(p.store, u)
				p.spent[u] = struct{}{}
				p.stats.Evicted++
				evicted = true
				continue
			default:
			}
		}
		p.order[w] = u
		w++
	}
	p.order = p.order[:w]
	return evicted
}

func (p *Prefetcher) fetch(u string, head bool, s *speculative) {
	defer p.wg.Done()
	if head {
		s.resp, s.err = p.backend.Head(u)
	} else {
		s.resp, s.err = p.backend.Get(u)
	}
	close(s.done)
	p.mu.Lock()
	p.pending--
	shared := p.shared
	p.mu.Unlock()
	if !head {
		publish(shared, u, s.resp, s.err)
	}
}

// publish offers a completed GET to the fleet-shared cache, if there is one.
// Failures never enter it: a momentary 503 must not be replayed to other
// crawls as the page's truth.
func publish(shared SharedStore, u string, resp Response, err error) {
	if shared != nil && err == nil && !TransientResult(resp, err) {
		shared.Publish(u, resp)
	}
}

// Get implements Fetcher: a hinted URL is answered from the speculative
// store (blocking until its fetch lands, still one round trip ahead of the
// sequential engine) or the fleet-shared cache; anything else falls through
// to the backend, whose successful response is published for the rest of
// the fleet.
func (p *Prefetcher) Get(u string) (Response, error) {
	p.mu.Lock()
	shared := p.shared
	if s := p.store[u]; s != nil {
		delete(p.store, u)
		p.spent[u] = struct{}{}
		p.stats.Hits++
		p.mu.Unlock()
		<-s.done
		if !TransientResult(s.resp, s.err) {
			return s.resp, s.err
		}
		// Never serve a speculative failure as the demand result: the
		// fault may have been momentary, so the demand path gets a fresh
		// attempt (which retries on its own below this layer), shared like
		// any other demand fetch.
		return p.demand(shared, u)
	}
	if shared != nil {
		if resp, ok := shared.Lookup(u); ok {
			p.spent[u] = struct{}{} // a shared hit never needs speculation
			p.stats.Hits++
			p.stats.SharedHits++
			p.mu.Unlock()
			return resp, nil
		}
	}
	p.stats.Misses++
	p.mu.Unlock()
	return p.demand(shared, u)
}

// demand fetches u from the backend for the demand path and publishes the
// answer for the rest of the fleet.
func (p *Prefetcher) demand(shared SharedStore, u string) (Response, error) {
	resp, err := p.backend.Get(u)
	publish(shared, u, resp, err)
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
		delete(p.store, hk)
		p.spent[hk] = struct{}{}
		p.mu.Unlock()
		<-s.done
		if !TransientResult(s.resp, s.err) {
			if s.err == nil {
				p.countHeadHit()
			}
			return s.resp, s.err
		}
		// A speculative HEAD failure is not a demand answer (see Get).
		return p.backend.Head(u)
	}
	if s := p.store[u]; s != nil {
		p.mu.Unlock()
		<-s.done // the GET stays resident; only its headers are read
		if s.err == nil && !TransientResult(s.resp, s.err) {
			p.countHeadHit()
			return headOf(s.resp), nil
		}
		return p.backend.Head(u)
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

// countHeadHit records a HEAD served from this crawl's own speculation
// (shared-cache HEAD hits are counted inline in Head, under the lock it
// already holds).
func (p *Prefetcher) countHeadHit() {
	p.mu.Lock()
	p.stats.HeadHits++
	p.mu.Unlock()
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
// fetch has completed, so the backend is quiescent when the crawl returns
// (required by fetchers that are reused across sequential crawls, e.g. the
// experiments' shared Replay database).
func (p *Prefetcher) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats snapshots the speculation counters.
func (p *Prefetcher) Stats() PrefetchStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
