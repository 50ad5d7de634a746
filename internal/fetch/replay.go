package fetch

import (
	"sync"

	"sbcrawl/internal/store"
)

// Replay key prefixes in the durable backend: one namespace per verb.
const (
	replayGetPrefix  = "g|"
	replayHeadPrefix = "h|"
)

// Replay implements the local response database of Section 4.4: every
// crawler "first checks if the resource is already stored in a local
// database. If so, we use it; otherwise, we fetch it" and store the result.
// Wrapping the same Replay around several crawler runs gives them the
// identical view of the website that the paper's evaluation relies on.
//
// The database holds responses in memory and, when a store.Backend is
// attached (SetBackend), writes every response through to it and reloads
// from it: a crawl killed mid-flight leaves its responses on disk, and the
// resumed crawl replays them at memory speed instead of re-fetching. Disk
// and memory share one lookup path, so Hits/Misses/Stored count identically
// wherever an entry is served from; a disk-served entry is promoted into
// memory on first touch.
//
// Replay is safe for concurrent use (the speculative prefetch layer issues
// overlapping GETs). The lock is never held across a backend fetch, so
// concurrent misses on one URL may fetch it twice; both results are equal
// (the backend is deterministic) and either one is stored.
type Replay struct {
	backend Fetcher

	mu    sync.Mutex
	gets  map[string]Response
	heads map[string]Response
	// disk is the durable spill; diskGets/diskHeads track keys resident on
	// disk but not yet promoted into memory, keeping Stored() one number
	// whatever side an entry lives on.
	disk      store.Backend
	diskGets  map[string]bool
	diskHeads map[string]bool
	diskErr   error
	// enc is the spill encode scratch, reused under mu so the write path
	// stops allocating once it has grown to the largest response seen
	// (store.Put copies the value before returning).
	enc []byte
	// hits and misses count database lookups, for cache diagnostics.
	hits, misses int
}

// NewReplay wraps a backend fetcher with an empty database.
func NewReplay(backend Fetcher) *Replay {
	return &Replay{
		backend: backend,
		gets:    make(map[string]Response),
		heads:   make(map[string]Response),
	}
}

// SetBackend attaches the durable spill and indexes what it already holds,
// so a reopened database starts warm. Attach before the crawl starts, not
// concurrently with lookups.
func (r *Replay) SetBackend(b store.Backend) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.disk = b
	r.diskGets = make(map[string]bool)
	r.diskHeads = make(map[string]bool)
	for _, k := range b.Keys(replayGetPrefix) {
		url := k[len(replayGetPrefix):]
		if _, ok := r.gets[url]; !ok {
			r.diskGets[url] = true
		}
	}
	for _, k := range b.Keys(replayHeadPrefix) {
		url := k[len(replayHeadPrefix):]
		if _, ok := r.heads[url]; !ok {
			r.diskHeads[url] = true
		}
	}
}

// lookup is the single read path of the database: memory first, then the
// durable spill (promoting what it finds), counting exactly one hit or one
// miss per call whatever side answered.
func (r *Replay) lookup(mem map[string]Response, onDisk map[string]bool, prefix, url string) (Response, bool) {
	if resp, ok := mem[url]; ok {
		r.hits++
		return resp, true
	}
	if onDisk[url] {
		if raw, ok := r.disk.Get(prefix + url); ok {
			if resp, err := DecodeResponse(raw); err == nil {
				mem[url] = resp
				delete(onDisk, url)
				r.hits++
				return resp, true
			}
		}
		// Unreadable spill entry (corrupt or racing compaction): forget it
		// and fall through to a miss.
		delete(onDisk, url)
	}
	r.misses++
	return Response{}, false
}

// record is the single write path: memory always, the durable spill when
// attached. The first spill error is retained (DiskErr) and the database
// degrades to memory-only rather than failing the crawl.
//
// Transient and synthetic responses (429/503/599/451) are refused outright:
// a momentary outage recorded as durable truth would replay as truth
// forever — a resumed crawl would "see" the failure even after the host
// recovered. The retry layer above re-attempts such responses, and only
// the eventual real answer is stored.
func (r *Replay) record(mem map[string]Response, onDisk map[string]bool, prefix, url string, resp Response) {
	if UncacheableStatus(resp.Status) {
		return
	}
	mem[url] = resp
	delete(onDisk, url)
	if r.disk == nil {
		return
	}
	r.enc = AppendResponse(r.enc[:0], &resp)
	if err := r.disk.Put(prefix+url, r.enc); err != nil && r.diskErr == nil {
		r.diskErr = err
	}
}

// Get implements Fetcher.
func (r *Replay) Get(url string) (Response, error) {
	r.mu.Lock()
	if resp, ok := r.lookup(r.gets, r.diskGets, replayGetPrefix, url); ok {
		r.mu.Unlock()
		return resp, nil
	}
	r.mu.Unlock()
	resp, err := r.backend.Get(url)
	if err != nil {
		return resp, err
	}
	r.mu.Lock()
	r.record(r.gets, r.diskGets, replayGetPrefix, url, resp)
	r.mu.Unlock()
	return resp, nil
}

// Head implements Fetcher. A stored GET also answers HEAD (same headers).
func (r *Replay) Head(url string) (Response, error) {
	r.mu.Lock()
	if resp, ok := r.lookup(r.heads, r.diskHeads, replayHeadPrefix, url); ok {
		r.mu.Unlock()
		return resp, nil
	}
	// A resident GET answers the HEAD too; the failed head lookup above
	// already counted the miss, so re-classify it as a hit.
	if resp, ok := r.gets[url]; ok {
		r.misses--
		r.hits++
		r.mu.Unlock()
		headResp := resp
		headResp.Body = nil
		return headResp, nil
	}
	if r.diskGets[url] {
		if raw, ok := r.disk.Get(replayGetPrefix + url); ok {
			if resp, err := DecodeResponse(raw); err == nil {
				r.gets[url] = resp
				delete(r.diskGets, url)
				r.misses--
				r.hits++
				r.mu.Unlock()
				headResp := resp
				headResp.Body = nil
				return headResp, nil
			}
		}
		delete(r.diskGets, url)
	}
	r.mu.Unlock()
	resp, err := r.backend.Head(url)
	if err != nil {
		return resp, err
	}
	r.mu.Lock()
	r.record(r.heads, r.diskHeads, replayHeadPrefix, url, resp)
	r.mu.Unlock()
	return resp, nil
}

// Stored reports how many distinct GET responses the database holds,
// memory- and disk-resident alike.
func (r *Replay) Stored() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.gets) + len(r.diskGets)
}

// Hits reports how many lookups the database answered.
func (r *Replay) Hits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits
}

// Misses reports how many lookups fell through to the backend.
func (r *Replay) Misses() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.misses
}

// DiskErr reports the first durable-spill failure (nil when healthy; the
// database keeps serving from memory after one).
func (r *Replay) DiskErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.diskErr
}
