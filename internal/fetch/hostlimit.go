package fetch

import (
	"context"
	"sync"
	"time"

	"sbcrawl/internal/urlutil"
)

// HostLimiter enforces per-host politeness across concurrently running
// fetchers. However many crawls share one limiter, two successive requests
// to the same host are spaced at least the politeness delay apart; requests
// to distinct hosts never wait on each other. This is the BUbiNG-style
// invariant a fleet needs: parallelism across sites, strict politeness
// within one.
//
// A HostLimiter is safe for concurrent use. Same-host waiters are granted
// the window one at a time (the per-host mutex is held through the sleep),
// so N concurrent crawls of one host serialize into delay-spaced requests.
type HostLimiter struct {
	mu    sync.Mutex
	hosts map[string]*hostSlot

	// now and sleep are test seams; nil means time.Now / time.Sleep.
	now   func() time.Time
	sleep func(time.Duration)
}

// hostSlot is one host's politeness window.
type hostSlot struct {
	mu   sync.Mutex
	next time.Time // earliest instant the host accepts another request
}

// NewHostLimiter builds an empty limiter.
func NewHostLimiter() *HostLimiter { return &HostLimiter{} }

// SharedHostLimiter coordinates every HTTP fetcher that does not set its
// own Limiter, so two live crawls of the same host in one process never
// violate MinDelay between them.
var SharedHostLimiter = NewHostLimiter()

// evictThreshold is the map size beyond which slot() sweeps out long-idle
// hosts, bounding a long-lived process that crawls many distinct hosts.
const evictThreshold = 1024

// evictGrace is how long past its window a host must be idle before its
// slot may be dropped.
const evictGrace = time.Minute

func (l *HostLimiter) slot(host string) *hostSlot {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hosts == nil {
		l.hosts = make(map[string]*hostSlot)
	}
	s := l.hosts[host]
	if s == nil {
		if len(l.hosts) >= evictThreshold {
			l.evictIdleLocked()
		}
		s = &hostSlot{}
		l.hosts[host] = s
	}
	return s
}

// evictIdleLocked drops slots whose window expired over evictGrace ago.
// TryLock skips hosts with waiters in flight; an evicted slot's stragglers
// (a goroutine that fetched the pointer but has not locked yet) still
// serialize among themselves on the orphaned mutex, and the host was idle
// for a minute, so politeness is preserved in practice.
func (l *HostLimiter) evictIdleLocked() {
	now := l.now
	if now == nil {
		now = time.Now
	}
	cutoff := now().Add(-evictGrace)
	for host, s := range l.hosts {
		if !s.mu.TryLock() {
			continue
		}
		idle := s.next.Before(cutoff)
		s.mu.Unlock()
		if idle {
			delete(l.hosts, host)
		}
	}
}

// Wait blocks until the host's politeness window opens, then claims it:
// the next Wait on the same host returns no earlier than delay from now.
// A zero or negative delay returns immediately without claiming anything.
func (l *HostLimiter) Wait(host string, delay time.Duration) {
	_ = l.WaitContext(nil, host, delay)
}

// WaitContext is Wait with prompt cancellation: a cancelled ctx interrupts
// the politeness sleep immediately and returns the context's error without
// claiming the host's window (the request it was pacing will not be sent).
// A nil ctx never cancels.
func (l *HostLimiter) WaitContext(ctx context.Context, host string, delay time.Duration) error {
	if l == nil || delay <= 0 {
		return ctxErr(ctx)
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	now, sleep := l.now, l.sleep
	if now == nil {
		now = time.Now
	}
	s := l.slot(host)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := now()
	if wait := s.next.Sub(t); wait > 0 {
		if sleep != nil {
			sleep(wait) // test seam: deterministic, not cancellable
		} else if err := sleepContext(ctx, wait); err != nil {
			return err
		}
		t = t.Add(wait)
		// The scheduler may oversleep; stamp the window from when we
		// actually woke so the next request still waits the full delay
		// after this one really goes out.
		if actual := now(); actual.After(t) {
			t = actual
		}
	}
	s.next = t.Add(delay)
	return nil
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// sleepContext sleeps for d or until ctx is cancelled, whichever comes
// first, returning the context's error on cancellation.
func sleepContext(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// hostKey derives the limiter key for a URL: the host (port included, so
// distinct servers on one machine stay independent) without the scheme, so
// an http→https redirect of one site shares a single politeness window.
// Falls back to the raw URL when it does not parse.
func hostKey(rawURL string) string {
	if host := urlutil.Authority(rawURL); host != "" {
		return host
	}
	return rawURL
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
