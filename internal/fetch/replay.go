package fetch

import (
	"strings"
	"sync"

	"sbcrawl/internal/codec"
	"sbcrawl/internal/freelist"
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
// Without a store.Backend the database is its two in-memory maps. With one
// attached (SetBackend) it is a view of the backend: a lookup is one
// backend read by URL, a response is written through and not kept, so what a
// persisted crawl holds in memory does not grow with the bytes it has
// fetched — a crawl killed mid-flight leaves its responses on disk, and the
// resumed crawl replays them from there instead of re-fetching. Memory then
// holds only the responses whose write failed (see DiskErr). Both sides
// share one lookup path, so Hits/Misses/Stored count identically wherever
// an entry is served from.
//
// The view is live: nothing is listed at attach, so a Replay also serves
// the records another Replay wrote to the same backend namespace after it
// attached — two concurrent crawls of one site share fetches as they go.
// Results do not depend on it (the backend is deterministic), Hits and
// Misses under such concurrency do. A Replay shared by several runs over a
// backend re-reads each response from the backend on every run.
//
// A disk hit is read into a pooled buffer (codec.GetBuffer) and owns every
// field but the Body: the URL is the requested string or a copy, the MIME
// type and Location are copies.
// The Body is a view of the buffer, lent to the caller: one body at a time
// is on loan, and Recycle with that body returns the buffer to the pool.
// While a body is on loan, further GET hits read into a fresh value of their
// own, as every hit did before lending; a HEAD hit carries no body, so its
// buffer goes back at once. Bodies served from memory or by the backend are
// never lent. Only a body's last holder may recycle it: the crawl engine
// does, once it has extracted a page's links, sequential or pipelined — a
// Prefetcher zeroes the entry it hands a body out of — unless a fleet's
// shared speculation cache keeps responses past the step. A body on loan
// that is never handed back (one a window evicted unconsumed, or one behind
// a wrapper that hides Recycle) is left to the GC and lending stops for that
// Replay.
//
// Replay is safe for concurrent use (the speculative prefetch layer issues
// overlapping GETs). The lock is never held across a backend fetch, so
// concurrent misses on one URL may fetch it twice; both results are equal
// (the backend is deterministic) and either one is stored.
type Replay struct {
	backend Fetcher

	mu sync.Mutex
	// gets and heads are the whole database without a durable backend, and
	// only what could not be written to it with one.
	gets  map[string]Response
	heads map[string]Response
	// getDisk and headDisk are the backend's two verb namespaces (nil
	// without one), read and written by URL alone: a read's key is joined
	// in the store's scratch, never in a string (see store.Prefixed).
	getDisk, headDisk store.Backend
	diskErr           error
	// enc is the write-through encode scratch, reused under mu so the write
	// path stops allocating once it has grown to the largest response seen
	// (store.Put copies the value before returning).
	enc []byte
	// lent is the pooled buffer whose Body is on loan and lentAt that body's
	// first byte, both nil when nothing is lent.
	lent   *[]byte
	lentAt *byte
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

// SetBackend attaches the durable backend; whatever it already holds is
// served from the first lookup on, so a reopened database starts warm.
// Attach before the crawl starts, not concurrently with lookups.
func (r *Replay) SetBackend(b store.Backend) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.getDisk, r.headDisk = nil, nil
	if b != nil {
		r.getDisk = store.Prefixed(b, replayGetPrefix)
		r.headDisk = store.Prefixed(b, replayHeadPrefix)
	}
}

// load is the single read path of the database: memory first, then the
// durable backend's namespace disk by URL. An absent URL is one index miss
// there; a record that does not decode is treated as absent, and the
// re-fetch overwrites it. lend marks a GET, whose disk-hit body may be lent;
// any other lookup is a HEAD and comes back without a body.
func (r *Replay) load(mem map[string]Response, disk store.Backend, url string, lend bool) (Response, bool) {
	resp, ok := mem[url]
	if !ok && disk != nil {
		resp, ok = r.read(disk, url, lend)
	}
	if !lend {
		resp.Body = nil
	}
	return resp, ok
}

// read decodes disk's record for url. It reads into a pooled buffer unless a
// GET body is already on loan — then into a fresh value the GC takes back —
// and lends the buffer with a GET's non-empty body or returns it to the pool
// at once.
func (r *Replay) read(disk store.Backend, url string, lend bool) (Response, bool) {
	var buf *[]byte
	var raw []byte
	if r.lent == nil || !lend {
		buf = codec.GetBuffer()
		raw = *buf
	}
	raw, ok := disk.AppendValue(raw, url)
	var resp Response
	if ok && DecodeResponseInto(raw, &resp) == nil {
		r.own(&resp, url)
	} else {
		resp, ok = Response{}, false
	}
	if buf != nil {
		*buf = raw
		if lend && len(resp.Body) > 0 {
			r.lent, r.lentAt = buf, &resp.Body[0]
		} else {
			codec.PutBuffer(buf)
		}
	}
	return resp, ok
}

// own replaces the string views a decode leaves into the read buffer with
// strings that outlive it: the requested URL when the record's equals it, a
// copy otherwise.
func (r *Replay) own(resp *Response, url string) {
	if resp.URL == url {
		resp.URL = url
	} else {
		resp.URL = strings.Clone(resp.URL)
	}
	resp.MIME = strings.Clone(resp.MIME)
	resp.Location = strings.Clone(resp.Location)
}

// Recycle implements Recycler: handed the body on loan, it returns that
// body's buffer to the pool. Any other slice — a body served from memory or
// by the backend, a foreign one — is ignored. A body must be handed back at
// most once: after Recycle its memory may hold the next hit's body, and in
// race builds it is overwritten first (freelist.Poison).
func (r *Replay) Recycle(body []byte) {
	if len(body) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if &body[0] != r.lentAt {
		return
	}
	freelist.Poison(*r.lent)
	codec.PutBuffer(r.lent)
	r.lent, r.lentAt = nil, nil
}

// count tallies exactly one hit or one miss per Get or Head, whatever side
// answered.
func (r *Replay) count(hit bool) {
	if hit {
		r.hits++
	} else {
		r.misses++
	}
}

// record is the single write path: through to the durable backend when one
// is attached, into memory otherwise — and when the write fails: the first
// such error is retained (DiskErr) and the database degrades to memory
// rather than failing the crawl.
//
// Transient and synthetic responses (429/503/599/451) are refused outright:
// a momentary outage recorded as durable truth would replay as truth
// forever — a resumed crawl would "see" the failure even after the host
// recovered. The retry layer above re-attempts such responses, and only
// the eventual real answer is stored.
func (r *Replay) record(mem map[string]Response, disk store.Backend, url string, resp Response) {
	if UncacheableStatus(resp.Status) {
		return
	}
	if disk != nil {
		r.enc = AppendResponse(r.enc[:0], &resp)
		err := disk.Put(url, r.enc)
		if err == nil {
			return
		}
		if r.diskErr == nil {
			r.diskErr = err
		}
	}
	mem[url] = resp
}

// Get implements Fetcher.
func (r *Replay) Get(url string) (Response, error) {
	r.mu.Lock()
	resp, ok := r.load(r.gets, r.getDisk, url, true)
	r.count(ok)
	r.mu.Unlock()
	if ok {
		return resp, nil
	}
	resp, err := r.backend.Get(url)
	if err != nil {
		return resp, err
	}
	r.mu.Lock()
	r.record(r.gets, r.getDisk, url, resp)
	r.mu.Unlock()
	return resp, nil
}

// Head implements Fetcher. A stored GET also answers HEAD (same headers); a
// hit never carries a body.
func (r *Replay) Head(url string) (Response, error) {
	r.mu.Lock()
	resp, ok := r.load(r.heads, r.headDisk, url, false)
	if !ok {
		resp, ok = r.load(r.gets, r.getDisk, url, false)
	}
	r.count(ok)
	r.mu.Unlock()
	if ok {
		return resp, nil
	}
	resp, err := r.backend.Head(url)
	if err != nil {
		return resp, err
	}
	r.mu.Lock()
	r.record(r.heads, r.headDisk, url, resp)
	r.mu.Unlock()
	return resp, nil
}

// Stored reports how many distinct GET responses the database holds: the
// backend's, counted there, plus those held in memory.
func (r *Replay) Stored() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.gets)
	if r.getDisk != nil {
		n += r.getDisk.Count("")
	}
	return n
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

// DiskErr reports the first failed write to the durable backend (nil when
// healthy; a response that could not be written is kept in memory).
func (r *Replay) DiskErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.diskErr
}
