package fetch

import (
	"sort"
	"sync"
)

// BreakerPolicy parameterizes the per-host circuit breaker. All thresholds
// count requests, not wall-clock time: the breaker's state is a pure
// function of the sequence of demand outcomes, so a crawl driving it from
// its deterministic request loop gets deterministic quarantine decisions.
type BreakerPolicy struct {
	// FailureThreshold is how many consecutive final failures (retry
	// budget already spent) open a host's breaker (0 → 5).
	FailureThreshold int
	// Cooldown is how many demand requests to an open host fast-fail
	// before one half-open probe is let through (0 → 32).
	Cooldown int
	// MaxCooldown caps the exponentially growing cooldown of a host whose
	// probes keep failing — BUbiNG's growing re-visit interval (0 → 512).
	MaxCooldown int
}

// DefaultBreakerPolicy is the policy a zero BreakerPolicy resolves to.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{FailureThreshold: 5, Cooldown: 32, MaxCooldown: 512}
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	d := DefaultBreakerPolicy()
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = d.FailureThreshold
	}
	if p.Cooldown <= 0 {
		p.Cooldown = d.Cooldown
	}
	if p.MaxCooldown <= 0 {
		p.MaxCooldown = d.MaxCooldown
	}
	return p
}

// Breaker host states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a per-host circuit breaker with half-open probing: a host
// whose requests keep failing after retries is quarantined — further
// demand requests fast-fail without touching the network — and probed
// again after a cooldown that doubles on every failed probe. The crawl
// degrades gracefully around a dying host instead of burning its budget
// on it.
//
// The breaker is driven from the engine's strictly sequential demand loop
// (Allow before each charged request, Observe after), and its state
// advances only on those calls — never on wall-clock time or speculative
// traffic — so quarantine decisions replay identically across runs,
// partition counts, and resumes. Safe for concurrent use anyway (stats
// are read from other goroutines).
type Breaker struct {
	pol BreakerPolicy

	mu        sync.Mutex
	hosts     map[string]*breakerHost
	trips     int
	fastFails int
}

type breakerHost struct {
	state    int
	failures int // consecutive final failures while closed
	cooldown int // current open-state cooldown length
	waited   int // fast-fails since the breaker opened
}

// NewBreaker builds a breaker (zero policy fields take defaults).
func NewBreaker(pol BreakerPolicy) *Breaker {
	return &Breaker{pol: pol.withDefaults(), hosts: make(map[string]*breakerHost)}
}

// Allow reports whether a demand request for rawURL may go out. An open
// host fast-fails (false) until its cooldown elapses, then lets exactly
// one half-open probe through.
func (b *Breaker) Allow(rawURL string) bool {
	if b == nil {
		return true
	}
	host := hostKey(rawURL)
	b.mu.Lock()
	defer b.mu.Unlock()
	h := b.hosts[host]
	if h == nil {
		return true
	}
	switch h.state {
	case breakerOpen:
		h.waited++
		if h.waited >= h.cooldown {
			h.state = breakerHalfOpen
			return true // the probe
		}
		b.fastFails++
		return false
	case breakerHalfOpen:
		// A probe is already out (possible only if Observe was skipped);
		// keep fast-failing until its verdict lands.
		b.fastFails++
		return false
	}
	return true
}

// Observe records the final outcome (retries already spent) of a demand
// request that Allow let through.
func (b *Breaker) Observe(rawURL string, failed bool) {
	if b == nil {
		return
	}
	host := hostKey(rawURL)
	b.mu.Lock()
	defer b.mu.Unlock()
	h := b.hosts[host]
	if h == nil {
		if !failed {
			return
		}
		h = &breakerHost{}
		b.hosts[host] = h
	}
	switch h.state {
	case breakerClosed:
		if !failed {
			h.failures = 0
			return
		}
		h.failures++
		if h.failures >= b.pol.FailureThreshold {
			h.state = breakerOpen
			h.cooldown = b.pol.Cooldown
			h.waited = 0
			b.trips++
		}
	case breakerHalfOpen:
		if failed {
			// Failed probe: reopen with a doubled cooldown, capped.
			h.state = breakerOpen
			h.cooldown *= 2
			if h.cooldown > b.pol.MaxCooldown {
				h.cooldown = b.pol.MaxCooldown
			}
			h.waited = 0
			b.trips++
			return
		}
		// Recovered: close and forget the failure history.
		h.state = breakerClosed
		h.failures = 0
	}
}

// Quarantined lists the hosts currently open or probing, sorted for
// deterministic presentation.
func (b *Breaker) Quarantined() []string {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for host, h := range b.hosts {
		if h.state != breakerClosed {
			out = append(out, host)
		}
	}
	sort.Strings(out)
	return out
}

// Stats reports the breaker's contribution to FaultStats: trips, fast-fails
// and the hosts still quarantined.
func (b *Breaker) Stats() FaultStats {
	if b == nil {
		return FaultStats{}
	}
	q := b.Quarantined()
	b.mu.Lock()
	defer b.mu.Unlock()
	return FaultStats{
		BreakerTrips:     b.trips,
		BreakerFastFails: b.fastFails,
		QuarantinedHosts: q,
	}
}
