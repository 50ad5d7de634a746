package fabric

import (
	"sync"

	"sbcrawl/internal/dom"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/frontier"
	"sbcrawl/internal/urlutil"
)

// partition is one host-hash shard of the crawl: a FIFO frontier of owned
// URLs, a speculative fetch window over the shared (ledgered, cache-
// publishing) backend, and a seen set covering both its own pushes and the
// foreign URLs it has already forwarded. The loop is the staged engine shape
// in miniature — pop, hint the window ahead, fetch, extract, route — but
// every result goes into the shared cache for the real engine to consume,
// never into a Result of its own.
type partition struct {
	f     *Fabric
	id    int
	scope *urlutil.Scope
	pf    *fetch.Prefetcher
	kick  chan struct{} // receiver → loop: new work admitted

	mu       sync.Mutex
	frontier frontier.Queue
	seen     map[string]bool
	fetches  int

	pendingOut []Envelope
	rawLinks   []dom.Link
}

func newPartition(f *Fabric, id int, scope *urlutil.Scope) *partition {
	p := &partition{f: f, id: id, scope: scope, seen: make(map[string]bool),
		kick: make(chan struct{}, 1)}
	p.pf = fetch.NewPrefetcher(&partitionBackend{p: p}, f.cfg.Window)
	return p
}

// partitionBackend is what a partition's Prefetcher fetches through: it
// acquires a ledger credit, registers the in-flight fetch in the shared
// cache (acquire strictly before begin — see ledger), and publishes the
// backend's answer for the engine's demand path.
type partitionBackend struct {
	p *partition
}

func (b *partitionBackend) Get(u string) (fetch.Response, error) {
	p := b.p
	if !p.f.led.acquire(p.id) {
		return fetch.Response{}, errClosed
	}
	e, created := p.f.cache.begin(u)
	if !created {
		// The demand path registered this fetch (a miss it served itself):
		// join it, then drop the entry — the engine has already consumed
		// this page and will never take it.
		<-e.done
		p.f.cache.remove(u, e)
		return e.resp, e.err
	}
	p.mu.Lock()
	p.fetches++
	p.mu.Unlock()
	resp, err := p.f.backend.Get(u)
	p.f.cache.finish(e, resp, err)
	return resp, err
}

// Head exists to satisfy fetch.Fetcher; partitions only speculate GETs
// (HEAD demand is answered from speculated GETs by Fabric.Head).
func (b *partitionBackend) Head(u string) (fetch.Response, error) {
	if !b.p.f.led.acquire(b.p.id) {
		return fetch.Response{}, errClosed
	}
	return b.p.f.backend.Head(u)
}

// admitLocked pushes a URL this partition owns, once. Caller holds p.mu.
func (p *partition) admitLocked(u string) {
	if p.seen[u] {
		return
	}
	p.seen[u] = true
	p.frontier.Push(u)
}

// run is the partition loop. It exits when the fabric stops; Close waits
// for the partition's speculative window to drain first. Inbox consumption
// runs on its own goroutine (receive) so forwarded URLs enter the frontier
// the moment they arrive — admission order is what keeps a partition's FIFO
// tracking the engine's traversal, so forwards must not queue behind the
// loop's blocking fetch.
func (p *partition) run() {
	defer p.pf.Close()
	done := make(chan struct{})
	defer close(done)
	go p.receive(done)
	for {
		select {
		case <-p.f.stop:
			return
		default:
		}
		p.flushPending()
		u, hints, ok := p.next()
		if !ok {
			// Frontier empty: park until the receiver admits forwarded
			// work or the fabric shuts down.
			select {
			case <-p.f.stop:
				return
			case <-p.kick:
			}
			continue
		}
		// Skip quarantined hosts entirely: speculating on a host the
		// breaker wrote off burns ledger credit on guaranteed failures.
		// The demand path still decides the URL's fate — skipping only
		// costs a cache miss if the breaker recovers the host later.
		if p.f.skipHost(u) {
			continue
		}
		if live := hintsSansQuarantined(p.f, hints); len(live) > 0 {
			p.pf.Hint(live...)
		}
		resp, err := p.pf.Get(u)
		if err != nil {
			continue // fabric closing, or a backend error the engine re-sees
		}
		p.ingest(u, resp)
	}
}

// hintsSansQuarantined filters speculative hints down to live hosts. The
// common case (no quarantine) returns the slice untouched.
func hintsSansQuarantined(f *Fabric, hints []string) []string {
	f.qmu.RLock()
	n := len(f.quarantine)
	f.qmu.RUnlock()
	if n == 0 {
		return hints
	}
	live := hints[:0]
	for _, h := range hints {
		if !f.skipHost(h) {
			live = append(live, h)
		}
	}
	return live
}

// receive admits forwarded URLs as they arrive, waking the loop if it is
// parked on an empty frontier.
func (p *partition) receive(done <-chan struct{}) {
	inbox := p.f.ex.inbox(p.id)
	for {
		select {
		case <-done:
			return
		case <-p.f.stop:
			return
		case env := <-inbox:
			p.accept(env)
			select {
			case p.kick <- struct{}{}:
			default:
			}
		}
	}
}

// next pops the partition's next URL and peeks the window behind it for
// speculative hints (the popped URL first, so its own fetch launches too).
func (p *partition) next() (u string, hints []string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u, ok = p.frontier.Pop()
	if !ok {
		return "", nil, false
	}
	hints = append([]string{u}, p.frontier.Peek(p.f.cfg.Window-1)...)
	return u, hints, true
}

// accept admits forwarded URLs, re-checking the local seen set (the sender
// dedupes on its side too, but several partitions may forward one URL).
func (p *partition) accept(env Envelope) {
	p.mu.Lock()
	for _, u := range env.URLs {
		p.admitLocked(u)
	}
	p.mu.Unlock()
}

// flushPending retries exchange envelopes that previously found a full
// inbox. Sends never block, so mutual forwarding cannot deadlock.
func (p *partition) flushPending() {
	if len(p.pendingOut) == 0 {
		return
	}
	kept := p.pendingOut[:0]
	for _, env := range p.pendingOut {
		if !p.f.ex.send(env) {
			kept = append(kept, env)
		}
	}
	p.pendingOut = kept
}

// ingest mirrors the engine's link handling on the speculative side:
// follow one redirect hop as a routed URL, extract and filter links from
// HTML, keep own-host URLs, forward foreign-host URLs over the exchange.
func (p *partition) ingest(pageURL string, resp fetch.Response) {
	switch {
	case resp.Status >= 300 && resp.Status < 400:
		loc := urlutil.Normalize(urlutil.ParseBase(pageURL), resp.Location)
		if loc != "" && p.scope.Contains(loc) {
			p.route([]string{loc})
		}
	case resp.Status >= 200 && resp.Status < 300 &&
		!resp.Interrupted && urlutil.IsHTML(resp.MIME):
		p.routeLinks(pageURL, resp.Body)
	}
}

// routeLinks extracts a page's links and routes the crawlable ones — the
// same normalize/scope/extension filters as the engine, minus the global
// seen set (each partition dedupes what it owns or forwards).
func (p *partition) routeLinks(pageURL string, body []byte) {
	base := urlutil.ParseBase(pageURL)
	p.rawLinks = dom.ExtractLinksAppend(p.rawLinks[:0], body)
	urls := make([]string, 0, len(p.rawLinks))
	for _, l := range p.rawLinks {
		abs := urlutil.Normalize(base, l.URL)
		if abs != "" && p.scope.Admit(abs) {
			urls = append(urls, abs)
		}
	}
	p.route(urls)
}

// route admits own-host URLs locally and batches foreign-host URLs into
// per-destination envelopes, deduped sender-side through the local seen set.
func (p *partition) route(urls []string) {
	var out map[int][]string
	p.mu.Lock()
	for _, u := range urls {
		dst := p.f.owner(u)
		if dst == p.id {
			p.admitLocked(u)
			continue
		}
		if p.seen[u] {
			continue
		}
		p.seen[u] = true
		if out == nil {
			out = make(map[int][]string)
		}
		out[dst] = append(out[dst], u)
	}
	p.mu.Unlock()
	for dst, batch := range out {
		env := Envelope{From: p.id, To: dst, URLs: batch}
		if !p.f.ex.send(env) {
			p.pendingOut = append(p.pendingOut, env)
		}
	}
}
