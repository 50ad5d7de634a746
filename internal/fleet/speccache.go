package fleet

import (
	"sync"

	"sbcrawl/internal/fetch"
)

// SpecCache is the fleet-level shared speculation store (fetch.SharedStore):
// a bounded, URL-keyed cache of completed GET responses that concurrently
// running crawls publish into and serve each other from. It is the
// BUbiNG-style frontier-exchange analog for speculation — several entry
// points crawling one host stop re-fetching what another crawl already
// speculatively retrieved.
//
// Correctness rests on the sharing crawls seeing the same content per URL:
// responses of a deterministic simulated Site, or one live host crawled by
// every member. The orchestrator scopes caches accordingly (one per
// distinct Site in CrawlSites); crawls of unrelated content must not share
// one cache.
//
// SpecCache is safe for concurrent use. Publishes are first-write-wins and
// eviction is oldest-first, bounding memory at roughly cap responses.
type SpecCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]fetch.Response
	order   []string // publish order, for oldest-first eviction
}

// DefaultSpecCacheCap bounds a cache nobody sized explicitly. At a typical
// ~10 KB per simulated page this keeps a fleet's shared store around 100 MB
// worst case while covering sites far larger than the prefetch window.
const DefaultSpecCacheCap = 8192

// NewSpecCache builds an empty cache holding at most cap responses
// (cap <= 0 selects DefaultSpecCacheCap).
func NewSpecCache(cap int) *SpecCache {
	if cap <= 0 {
		cap = DefaultSpecCacheCap
	}
	return &SpecCache{cap: cap, entries: make(map[string]fetch.Response)}
}

// Lookup implements fetch.SharedStore.
func (c *SpecCache) Lookup(url string) (fetch.Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, ok := c.entries[url]
	return resp, ok
}

// Contains implements fetch.SharedStore: a residency probe for the hint
// scan.
func (c *SpecCache) Contains(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[url]
	return ok
}

// Publish implements fetch.SharedStore: first write wins (every sharing
// crawl fetches identical content, so there is nothing to reconcile), and
// the oldest entry is evicted once the cap is reached.
func (c *SpecCache) Publish(url string, resp fetch.Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[url]; ok {
		return
	}
	if len(c.entries) >= c.cap {
		c.evictOldestLocked()
	}
	c.entries[url] = resp
	c.order = append(c.order, url)
}

// evictOldestLocked drops the oldest resident entry (the order slice never
// holds holes: Publish is the only writer and entries are never deleted
// elsewhere).
func (c *SpecCache) evictOldestLocked() {
	if len(c.order) == 0 {
		return
	}
	delete(c.entries, c.order[0])
	c.order[0] = ""
	c.order = c.order[1:]
}

var _ fetch.SharedStore = (*SpecCache)(nil)
