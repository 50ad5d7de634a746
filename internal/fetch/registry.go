package fetch

import (
	"context"
	"sort"
	"sync"
	"time"

	"sbcrawl/internal/urlutil"
)

// Registry is a politeness domain: one table of per-host slots, each holding
// the host's rate-limiting window and its accounting. However many fetchers
// share one Registry, two successive requests to the same host are spaced at
// least the politeness delay apart, while requests to distinct hosts never
// wait on each other — the BUbiNG invariant a fleet needs: parallelism
// across sites, strict politeness within one, no matter which tenant,
// session or crawl issued the request.
//
// Every HTTP fetcher without a Registry of its own shares one unexported
// default, so ad-hoc library crawls in one process stay polite toward each
// other; a long-lived multi-tenant process (the crawld daemon) owns a
// Registry so it can raise the floor domain-wide and inspect per-host
// traffic.
//
// A Registry is safe for concurrent use. Same-host waiters are granted the
// window one at a time (the slot's mutex is held through the sleep), so N
// concurrent crawls of one host serialize into delay-spaced requests, served
// near-FIFO. The table drops slots idle for evictGrace once it holds
// evictThreshold hosts, accounting included.
type Registry struct {
	mu    sync.Mutex
	hosts map[string]*hostSlot
	floor time.Duration

	// now and sleep are test seams; nil means time.Now and a sleep the
	// waiter's context interrupts.
	now   func() time.Time
	sleep func(time.Duration)
}

// hostSlot is one host's politeness window and accounting. mu serializes
// same-host waiters and is held through the politeness sleep; every other
// field is guarded by Registry.mu — next is written under both, so mu's
// holder may read it alone — which keeps Usage, HostCount and eviction from
// ever waiting out a sleeper.
type hostSlot struct {
	mu sync.Mutex

	next      time.Time // earliest instant the host accepts another request
	waiters   int       // WaitContext calls queued on or holding mu; pins the slot
	grants    int
	waited    time.Duration
	lastGrant time.Time
}

// HostUsage is a snapshot of one host's politeness accounting.
type HostUsage struct {
	// Host is the rate-limiting key: host:port with the scheme stripped.
	Host string `json:"host"`
	// Grants counts politeness windows granted for the host — one per
	// request that went through the registry.
	Grants int `json:"grants"`
	// Waited is the total time requests spent blocked on the host's
	// window; zero means the host was never contended.
	Waited time.Duration `json:"waited"`
	// LastGrant is when the host's window was last claimed.
	LastGrant time.Time `json:"last_grant"`
}

// defaultRegistry serves every HTTP fetcher whose Registry is nil.
var defaultRegistry = NewRegistry()

// evictThreshold is the table size beyond which a new host sweeps out
// long-idle ones, bounding a long-lived process that crawls many distinct
// hosts.
const evictThreshold = 1024

// evictGrace is how long past its window and its last grant a host must be
// idle before its slot may be dropped.
const evictGrace = time.Minute

// NewRegistry builds an empty politeness registry.
func NewRegistry() *Registry {
	return &Registry{hosts: make(map[string]*hostSlot)}
}

// SetFloor sets the registry-wide politeness floor: every wait uses at least
// this delay, whatever the individual fetcher asked for. A daemon uses it to
// enforce a minimum politeness across all tenants (a tenant may always be
// more polite than the floor, never less).
func (r *Registry) SetFloor(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.floor = d
}

func (r *Registry) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

// WaitContext blocks until the host's politeness window opens, then claims
// it — the next wait on the same host returns no earlier than delay (raised
// to the floor) from now — and accounts the grant. A delay that is still
// zero or negative is accounted without waiting or claiming anything. A
// cancelled ctx interrupts the wait promptly and returns the context's error
// without claiming the window or recording a grant (the request it was
// pacing will not be sent). A nil ctx never cancels.
func (r *Registry) WaitContext(ctx context.Context, host string, delay time.Duration) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	start := r.clock()
	r.mu.Lock()
	delay = max(delay, r.floor)
	s := r.slotLocked(host)
	if delay <= 0 {
		s.account(start, start)
		r.mu.Unlock()
		return nil
	}
	s.waiters++
	r.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := r.waitUntil(ctx, s.next)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.waiters--
	if err != nil {
		return err
	}
	s.next = t.Add(delay)
	s.account(start, t)
	return nil
}

// waitUntil sleeps until next and returns the instant the wait ended.
func (r *Registry) waitUntil(ctx context.Context, next time.Time) (time.Time, error) {
	t := r.clock()
	wait := next.Sub(t)
	if wait <= 0 {
		return t, nil
	}
	if r.sleep != nil {
		r.sleep(wait) // test seam: deterministic, not cancellable
	} else if err := sleepContext(ctx, wait); err != nil {
		return t, err
	}
	t = t.Add(wait)
	// The scheduler may oversleep; stamp the window from when we actually
	// woke so the next request still waits the full delay after this one
	// really goes out.
	if actual := r.clock(); actual.After(t) {
		t = actual
	}
	return t, nil
}

// account records a grant at t for a wait that began at start. The caller
// holds Registry.mu.
func (s *hostSlot) account(start, t time.Time) {
	s.grants++
	s.waited += t.Sub(start)
	s.lastGrant = t
}

// slotLocked returns the host's slot, creating it — after sweeping idle
// slots when the table is full — if absent. The caller holds r.mu.
func (r *Registry) slotLocked(host string) *hostSlot {
	s := r.hosts[host]
	if s == nil {
		if len(r.hosts) >= evictThreshold {
			r.evictIdleLocked()
		}
		s = &hostSlot{}
		r.hosts[host] = s
	}
	return s
}

// evictIdleLocked drops every slot no waiter holds whose window closed and
// whose last grant happened over evictGrace ago; the host's accounting goes
// with it. The caller holds r.mu.
func (r *Registry) evictIdleLocked() {
	cutoff := r.clock().Add(-evictGrace)
	for host, s := range r.hosts {
		if s.waiters == 0 && s.next.Before(cutoff) && s.lastGrant.Before(cutoff) {
			delete(r.hosts, host)
		}
	}
}

// Usage snapshots the per-host accounting, sorted by host.
func (r *Registry) Usage() []HostUsage {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]HostUsage, 0, len(r.hosts))
	for h, s := range r.hosts {
		out = append(out, HostUsage{Host: h, Grants: s.grants, Waited: s.waited, LastGrant: s.lastGrant})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// HostCount returns how many hosts the registry tracks (idle ones age out
// past 1,024).
func (r *Registry) HostCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.hosts)
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// hostKey derives the politeness key for a URL: the host (port included, so
// distinct servers on one machine stay independent) without the scheme, so
// an http→https redirect of one site shares a single politeness window.
// Falls back to the raw URL when it does not parse.
func hostKey(rawURL string) string {
	if host := urlutil.Authority(rawURL); host != "" {
		return host
	}
	return rawURL
}
