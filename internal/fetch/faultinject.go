package fetch

import "sbcrawl/internal/faultsim"

// FaultInjector wraps any Fetcher with a seeded faultsim.Plan: each attempt
// consults the plan and either surfaces the injected fault — a 503/429
// answer with Retry-After or a transport error (connection reset, timeout,
// truncated body) — or passes through to the backend.
// Injection sits below the replay database and the retry layer, so retried
// attempts really do reach the plan again and recover on schedule.
type FaultInjector struct {
	backend Fetcher
	plan    *faultsim.Plan
}

// NewFaultInjector wraps backend. A nil or inactive plan injects nothing.
func NewFaultInjector(backend Fetcher, plan *faultsim.Plan) *FaultInjector {
	return &FaultInjector{backend: backend, plan: plan}
}

// Get implements Fetcher.
func (f *FaultInjector) Get(u string) (Response, error) {
	flt, ok := f.plan.Next("GET", u)
	if !ok {
		return f.backend.Get(u)
	}
	return injectedResult(u, flt)
}

// Head implements Fetcher.
func (f *FaultInjector) Head(u string) (Response, error) {
	flt, ok := f.plan.Next("HEAD", u)
	if !ok {
		return f.backend.Head(u)
	}
	resp, err := injectedResult(u, flt)
	resp.Body = nil
	return resp, err
}

// Recycle implements Recycler: it hands body back to the backend when the
// backend is a Recycler. An injected fault carries no body to hand back.
func (f *FaultInjector) Recycle(body []byte) { recycleTo(f.backend, body) }

// injectedResult materializes one failing fault decision as a fetch
// outcome: a transport error, or a status answer carrying Retry-After.
func injectedResult(u string, flt faultsim.Fault) (Response, error) {
	if err := flt.Kind.Err(); err != nil {
		return Response{}, err
	}
	status := flt.Kind.Status()
	if status == 0 {
		status = 503 // unmapped failure kinds degrade to unavailability
	}
	return Response{URL: u, Status: status, RetryAfter: flt.RetryAfter}, nil
}
