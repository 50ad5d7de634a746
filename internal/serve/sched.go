package serve

// Weighted-fair scheduling of crawl units over the shared worker pool, by
// stride scheduling: each tenant holds a pass value, every dispatch picks
// the tenant with the minimum pass and advances it by strideOne/weight, so
// over any busy interval tenants receive dispatches in proportion to their
// weights — one tenant's 500-unit fleet cannot starve another tenant's
// single crawl, it only slows it to its fair share. The scheduler hands out
// whole crawl units (one unit = one site or root crawl), which is the
// granularity the engine exposes; fairness is over dispatches, the same
// simplification BUbiNG-class crawlers make when visits are comparable.

import "sync"

// strideOne is the stride numerator: pass advances by strideOne/weight per
// dispatch, so weight w tenants are picked w times as often. Large enough
// that integer division keeps distinct weights distinct over the clamp
// range [1, 64].
const strideOne = 1 << 20

// clampWeight bounds fair-share weights to [1, 64]: zero (unset) means 1,
// and no tenant can buy unbounded priority.
func clampWeight(w int) int {
	if w < 1 {
		return 1
	}
	if w > 64 {
		return 64
	}
	return w
}

// unit is one schedulable crawl: unit index i of its session (sites first,
// then roots).
type unit struct {
	sess  *session
	index int
}

// tenantQueue is one tenant's pending units and stride state.
type tenantQueue struct {
	weight int
	pass   uint64
	queue  []*unit
}

// scheduler multiplexes tenants' units onto workers calling next.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	// vtime is the global virtual time: the pass of the last dispatched
	// tenant. A tenant going from idle to busy joins at vtime rather than
	// its stale pass, so sleeping never banks credit (no burst after idle).
	vtime  uint64
	closed bool
}

func newScheduler() *scheduler {
	s := &scheduler{tenants: make(map[string]*tenantQueue)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueue adds a session's units to its tenant's queue and wakes workers.
// The latest enqueue's weight wins for the whole tenant.
func (s *scheduler) enqueue(tenant string, weight int, units []*unit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	tq := s.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{}
		s.tenants[tenant] = tq
	}
	tq.weight = clampWeight(weight)
	if len(tq.queue) == 0 && tq.pass < s.vtime {
		tq.pass = s.vtime
	}
	tq.queue = append(tq.queue, units...)
	s.cond.Broadcast()
}

// next blocks until a unit is runnable, returning ok=false once the
// scheduler is closed and drained of nothing (closed wins immediately —
// shutdown does not wait for the backlog).
func (s *scheduler) next() (*unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, false
		}
		if u := s.pick(); u != nil {
			return u, true
		}
		s.cond.Wait()
	}
}

// pick dispatches the min-pass tenant's next unit, lazily discarding units
// of cancelled sessions. Caller holds s.mu.
func (s *scheduler) pick() *unit {
	for {
		var (
			best     *tenantQueue
			bestName string
		)
		for name, tq := range s.tenants {
			if len(tq.queue) == 0 {
				continue
			}
			// Ties break by name so dispatch order is deterministic even
			// though map iteration is not.
			if best == nil || tq.pass < best.pass || (tq.pass == best.pass && name < bestName) {
				best, bestName = tq, name
			}
		}
		if best == nil {
			return nil
		}
		u := best.queue[0]
		best.queue[0] = nil
		best.queue = best.queue[1:]
		s.vtime = best.pass
		best.pass += strideOne / uint64(best.weight)
		// A cancelled session's queued units are dead weight: charge
		// nothing further and keep looking.
		if u.sess != nil && u.sess.isCancelled() {
			continue
		}
		return u
	}
}

// queued returns the tenant's pending unit count (admission control).
func (s *scheduler) queued(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tq := s.tenants[tenant]; tq != nil {
		return len(tq.queue)
	}
	return 0
}

// queuedTotal returns the pending unit count over all tenants.
func (s *scheduler) queuedTotal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, tq := range s.tenants {
		n += len(tq.queue)
	}
	return n
}

// close wakes every blocked worker to exit. Queued units are abandoned —
// the daemon's durable session records re-enqueue them on restart.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}
