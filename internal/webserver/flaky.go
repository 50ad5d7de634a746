package webserver

import "sbcrawl/internal/faultsim"

// Flaky wraps any simulated backend (a Server or a Federation) with a
// seeded fault plan, making the *server side* misbehave: scheduled URLs
// answer 503/429 with Retry-After for their first N attempts (or forever,
// for dead hosts) before serving their real page. Error-kind faults that a
// server cannot express as a status (connection resets, timeouts) are
// degraded to 503 here — the transport-level faultsim lives in
// fetch.FaultInjector; Flaky is the fault schedule a site profile carries.
//
// Flaky is safe for concurrent use when its backend is (the Plan locks its
// own attempt counters).
type Flaky struct {
	backend interface {
		Get(url string) Response
		Head(url string) Response
	}
	plan *faultsim.Plan
}

// NewFlaky wraps backend with a compiled fault plan.
func NewFlaky(backend interface {
	Get(url string) Response
	Head(url string) Response
}, plan *faultsim.Plan) *Flaky {
	return &Flaky{backend: backend, plan: plan}
}

// Get implements the SimBackend shape.
func (f *Flaky) Get(url string) Response {
	if resp, ok := f.intercept("GET", url); ok {
		return resp
	}
	return f.backend.Get(url)
}

// Head implements the SimBackend shape.
func (f *Flaky) Head(url string) Response {
	if resp, ok := f.intercept("HEAD", url); ok {
		resp.Body = nil
		return resp
	}
	return f.backend.Head(url)
}

func (f *Flaky) intercept(verb, url string) (Response, bool) {
	flt, ok := f.plan.Next(verb, url)
	if !ok {
		return Response{}, false
	}
	status := flt.Kind.Status()
	if status == 0 {
		// Transport-error kinds degrade to service unavailability at the
		// server level.
		status = 503
	}
	return Response{URL: url, Status: status, RetryAfter: flt.RetryAfter}, true
}
