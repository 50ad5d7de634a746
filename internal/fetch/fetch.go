// Package fetch defines the crawler's only window onto the Web: the Fetcher
// interface, with a simulated implementation over webserver, a real net/http
// implementation with politeness rate limiting, and a replay cache
// implementing the local-database semantics of Section 4.4.
package fetch

import (
	"context"
	"time"

	"sbcrawl/internal/freelist"
	"sbcrawl/internal/urlutil"
	"sbcrawl/internal/webserver"
)

// Response mirrors webserver.Response with one crawler-side addition: a
// download may be Interrupted when the Content-Type matches the multimedia
// blocklist (Sec. 3.4 — "its retrieval is immediately interrupted").
type Response struct {
	URL           string
	Status        int
	MIME          string
	Location      string
	Body          []byte
	ContentLength int
	Interrupted   bool
	// RetryAfter is the Retry-After header in seconds, sent with 503/429
	// answers; the retry layer honors it. Only the delta-seconds form is
	// read: an absent header, an HTTP-date or an invalid value is 0.
	RetryAfter int
}

// Fetcher issues HTTP requests. Implementations must be safe for concurrent
// use by one crawl: the speculative Prefetcher overlaps GETs on a single
// fetcher, so Sim (stateless over a read-only server), Replay and HTTP
// (internally locked) all tolerate concurrent calls. Replay and HTTP remain
// per-crawl even so — a fleet gives every site its own instance and
// coordinates politeness through one shared Registry instead.
type Fetcher interface {
	// Get retrieves a URL; implementations honor the banned-MIME
	// interruption rule when a blocklist is configured.
	Get(url string) (Response, error)
	// Head retrieves headers only.
	Head(url string) (Response, error)
}

// Recycler is implemented by a Fetcher that lends the bodies of the
// responses it returns — the simulated servers' GET bodies (webserver.Server
// and webserver.Federation), and Replay's disk hits — and by the wrappers
// that pass a hand-back on to what they wrap (Sim, Latency, FaultInjector):
// a caller done with a GET's Body hands it back, and the lender reuses its
// memory for a later response. A lender ignores bodies it did not lend.
// Handing back is optional — a body never recycled is left to the GC — and
// only the body's last holder may do it, once: afterwards neither the body
// nor anything aliasing it may be read.
type Recycler interface {
	Recycle(body []byte)
}

// SimBackend is an in-memory website a Sim serves from: one
// webserver.Server, or a webserver.Federation spanning several hosts.
type SimBackend interface {
	Get(url string) webserver.Response
	Head(url string) webserver.Response
}

// Sim serves requests from an in-memory SimBackend; it is the experiment
// path (no sockets, no waits, fully deterministic).
type Sim struct {
	server SimBackend
}

// NewSim wraps a simulated server.
func NewSim(server SimBackend) *Sim {
	return &Sim{server: server}
}

// Get implements Fetcher.
func (f *Sim) Get(url string) (Response, error) {
	resp := fromServer(f.server.Get(url))
	ApplyMIMEBlock(&resp)
	return resp, nil
}

// ApplyMIMEBlock interrupts a successful download whose Content-Type is on
// the multimedia blocklist, discarding the body (Sec. 3.4).
func ApplyMIMEBlock(resp *Response) {
	if resp.Status == 200 && urlutil.IsBlockedMIME(resp.MIME) {
		resp.Body = nil
		resp.Interrupted = true
	}
}

// Head implements Fetcher.
func (f *Sim) Head(url string) (Response, error) {
	return fromServer(f.server.Head(url)), nil
}

// Recycle implements Recycler: it hands body back to the server when the
// server lends its bodies.
func (f *Sim) Recycle(body []byte) { recycleTo(f.server, body) }

// recycleTo hands body back to f if f is a Recycler, and drops it otherwise.
func recycleTo(f any, body []byte) {
	if rc, ok := f.(Recycler); ok {
		rc.Recycle(body)
	}
}

func fromServer(r webserver.Response) Response {
	return Response{
		URL:           r.URL,
		Status:        r.Status,
		MIME:          r.MIME,
		Location:      r.Location,
		Body:          r.Body,
		ContentLength: r.ContentLength,
		RetryAfter:    r.RetryAfter,
	}
}

// Latency decorates a Fetcher with a fixed per-request delay, modelling
// network round-trip time in simulated crawls. It gives fleet and pipeline
// benchmarks a realistic speedup surface: parallel crawls — and a single
// crawl's speculative prefetches — overlap their waits the way real crawls
// overlap network I/O. Latency is safe for concurrent use when its Backend
// is.
type Latency struct {
	Backend Fetcher
	Delay   time.Duration
	// Ctx, when non-nil, interrupts the simulated round trip promptly on
	// cancellation; the cut-short request reports the context's error.
	Ctx context.Context
}

// Get implements Fetcher.
func (l *Latency) Get(url string) (Response, error) {
	if l.Delay > 0 {
		if err := sleepContext(l.Ctx, l.Delay); err != nil {
			return Response{}, err
		}
	}
	return l.Backend.Get(url)
}

// Head implements Fetcher.
func (l *Latency) Head(url string) (Response, error) {
	if l.Delay > 0 {
		if err := sleepContext(l.Ctx, l.Delay); err != nil {
			return Response{}, err
		}
	}
	return l.Backend.Head(url)
}

// Recycle implements Recycler: it hands body back to the Backend when the
// Backend is a Recycler.
func (l *Latency) Recycle(body []byte) { recycleTo(l.Backend, body) }

// timerFree parks the timers of finished context waits, so a simulated
// round trip with a Ctx — every fleet crawl's — Resets a parked timer
// instead of allocating one a request. A timer parks stopped; a timer's
// channel is unbuffered (Go 1.23 on), so a stopped timer holds no stale
// tick for its next Reset to leave behind.
var timerFree = freelist.New[*time.Timer]()

// sleepContext sleeps for d or until ctx is cancelled, whichever comes
// first, returning the context's error on cancellation.
func sleepContext(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	timer, ok := timerFree.Get()
	if ok {
		timer.Reset(d)
	} else {
		timer = time.NewTimer(d)
	}
	var err error
	select {
	case <-timer.C:
	case <-ctx.Done():
		err = ctx.Err()
	}
	timer.Stop()
	timerFree.Put(timer)
	return err
}

// Meter accumulates the two cost functions ω of Section 2.2: request counts
// and exchanged data volume, split by whether the response was a target.
// Every crawler charges its traffic here; metrics read the trace.
type Meter struct {
	Requests     int   // GET + HEAD
	HeadRequests int   // HEAD only
	BytesTotal   int64 // estimated on-wire bytes received
}

// ChargeGet records a GET exchange and returns its volume cost in bytes.
func (m *Meter) ChargeGet(resp Response) int64 {
	m.Requests++
	vol := int64(len(resp.Body)) + webserver.HeaderOverheadBytes
	m.BytesTotal += vol
	return vol
}

// ChargeHead records a HEAD exchange and returns its volume cost in bytes.
func (m *Meter) ChargeHead() int64 {
	m.Requests++
	m.HeadRequests++
	m.BytesTotal += webserver.HeaderOverheadBytes
	return webserver.HeaderOverheadBytes
}
