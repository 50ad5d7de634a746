// Package faultsim is a seeded, deterministic fault model for crawl
// substrates: given a Schedule (pure data: seed, rate, dead hosts), a Plan
// decides — as a pure function of the seed and the URL —
// whether a request should fail, how many times it fails before recovering,
// and with which fault kind. Injection layers (fetch.FaultInjector,
// webserver.Flaky) consult a Plan per attempt; everything above them
// (retry, circuit breaking, equivalence gates) sees reproducible failures.
//
// The package has no repo-internal dependencies, so any layer of the stack
// can import it without cycles.
package faultsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"

	"sbcrawl/internal/urlutil"
)

// Kind is one injectable fault shape. The zero Kind is no fault.
type Kind int

const (
	// Kind503 answers 503 Service Unavailable with a Retry-After header.
	Kind503 Kind = iota + 1
	// Kind429 answers 429 Too Many Requests with a Retry-After header.
	Kind429
	// KindConnReset fails the exchange with a connection-reset error.
	KindConnReset
	// KindTimeout fails the exchange with a deadline-exceeded error.
	KindTimeout
	// KindTruncated cuts the body short (an unexpected-EOF error: the
	// advertised Content-Length was not delivered).
	KindTruncated
)

// Injected-failure errors. Each wraps the stdlib error a real transport
// would surface, so error-classification layers need no faultsim knowledge.
var (
	ErrConnReset = fmt.Errorf("faultsim: read: %w", syscall.ECONNRESET)
	ErrTimeout   = fmt.Errorf("faultsim: request: %w", os.ErrDeadlineExceeded)
	ErrTruncated = fmt.Errorf("faultsim: body: %w", io.ErrUnexpectedEOF)
)

// Err returns the transport error a failure kind surfaces, or nil for
// kinds that answer with a status code instead.
func (k Kind) Err() error {
	switch k {
	case KindConnReset:
		return ErrConnReset
	case KindTimeout:
		return ErrTimeout
	case KindTruncated:
		return ErrTruncated
	}
	return nil
}

// Status returns the HTTP status a failure kind answers with, or 0 for
// kinds that fail the exchange with an error.
func (k Kind) Status() int {
	switch k {
	case Kind503:
		return 503
	case Kind429:
		return 429
	}
	return 0
}

// kinds is the fault mix a Plan draws each faulty URL's kind from.
var kinds = []Kind{Kind503, Kind429, KindConnReset, KindTimeout, KindTruncated}

const (
	// maxFailures bounds how many consecutive attempts a transiently faulty
	// URL fails before recovering; the exact count per URL is seeded in
	// [1, maxFailures].
	maxFailures = 2
	// retryAfterSec is the Retry-After value (seconds) attached to injected
	// 503/429 responses.
	retryAfterSec = 1
)

// Schedule is the pure-data description of a fault model. It is
// gob/json-encodable, so site profiles and experiment configs can carry one.
type Schedule struct {
	// Seed drives every decision; the same (Seed, URL) always fails the
	// same way.
	Seed int64
	// Rate is the fraction of URLs that fail transiently (0 → none, 1 →
	// every URL fails at least once before recovering).
	Rate float64
	// DeadHosts lists hostnames (lowercased, www-stripped) whose every
	// request fails, forever — the circuit breaker's prey. Attempt counts
	// never change a dead host's fault, so the surviving failure is
	// identical however many retries were burned on it.
	DeadHosts []string
}

// Fault is one injected fault decision.
type Fault struct {
	Kind Kind
	// RetryAfter is the Retry-After header value in seconds, for kinds
	// that answer with a status code.
	RetryAfter int
}

// Plan executes a Schedule: Next is consulted once per fetch attempt and
// tracks per-(verb, URL) attempt counts, so "fail N times, then succeed"
// sequences emerge from pure per-URL decisions. A Plan is safe for
// concurrent use (speculative fetch layers overlap attempts).
type Plan struct {
	sched Schedule
	dead  map[string]bool

	mu       sync.Mutex
	attempts map[string]int
}

// NewPlan compiles a Schedule. A nil-equivalent Schedule (Rate 0, no dead
// hosts) yields a Plan that never injects.
func NewPlan(sched Schedule) *Plan {
	p := &Plan{sched: sched, attempts: make(map[string]int)}
	if len(sched.DeadHosts) > 0 {
		p.dead = make(map[string]bool, len(sched.DeadHosts))
		for _, h := range sched.DeadHosts {
			p.dead[normalizeHost(h)] = true
		}
	}
	return p
}

// Active reports whether the plan can ever inject a fault.
func (p *Plan) Active() bool {
	return p != nil && (p.sched.Rate > 0 || len(p.dead) > 0)
}

// Next decides whether this attempt of verb on url fails, advancing the
// attempt counter. The first call for a (verb, url) pair is attempt 1.
func (p *Plan) Next(verb, url string) (Fault, bool) {
	if !p.Active() {
		return Fault{}, false
	}
	if p.dead[urlutil.SiteHost(url)] {
		// Dead hosts fail every attempt, with a kind fixed per URL —
		// attempt-independent, so the failure the crawl finally records
		// does not depend on how many retries probed it.
		p.count(verb, url)
		return p.fault(url), true
	}
	if !p.faulty(url) {
		return Fault{}, false
	}
	attempt := p.count(verb, url)
	if attempt > p.failures(url) {
		return Fault{}, false // recovered
	}
	return p.fault(url), true
}

// count advances and returns the 1-based attempt number for (verb, url).
func (p *Plan) count(verb, url string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := verb + "|" + url
	p.attempts[key]++
	return p.attempts[key]
}

// faulty decides — purely from seed and URL — whether the URL fails at all.
func (p *Plan) faulty(url string) bool {
	const den = 1 << 24
	return p.hash("f", url)%den < uint64(p.sched.Rate*den)
}

// failures returns how many attempts the URL fails before recovering.
func (p *Plan) failures(url string) int {
	return 1 + int(p.hash("n", url)%maxFailures)
}

// fault picks the URL's fault kind from kinds.
func (p *Plan) fault(url string) Fault {
	kind := kinds[p.hash("k", url)%uint64(len(kinds))]
	return Fault{Kind: kind, RetryAfter: retryAfterSec}
}

func (p *Plan) hash(ns, url string) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(p.sched.Seed))
	h.Write(seed[:])
	io.WriteString(h, ns)
	io.WriteString(h, url)
	return h.Sum64()
}

func normalizeHost(h string) string {
	return strings.TrimPrefix(strings.ToLower(h), "www.")
}
