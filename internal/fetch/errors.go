package fetch

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"syscall"
)

// ErrClass is the fetch-error taxonomy: what a failed exchange means for
// the crawl decides whether it is worth retrying, counts against a host's
// health, or must simply be accepted.
type ErrClass int

const (
	// ClassUnknown is an unclassified failure; treated as permanent.
	ClassUnknown ErrClass = iota
	// ClassTransient is a failure a retry may fix: timeouts, connection
	// resets, truncated transfers, refused connections.
	ClassTransient
	// ClassPermanent is a failure no retry fixes: cancellation, malformed
	// requests.
	ClassPermanent
	// ClassPolicy is a refusal by crawling policy (robots.txt): not an
	// outage, never retried, never charged against the host's health.
	ClassPolicy
)

// ClassifyError maps a fetch error onto the taxonomy. Classification is
// conservative: only failures positively identified as retryable are
// transient; everything unrecognized is ClassUnknown (treated permanent),
// so a retry loop can never spin on an error it does not understand.
func ClassifyError(err error) ErrClass {
	if err == nil {
		return ClassUnknown
	}
	switch {
	case errors.Is(err, ErrRobotsDisallowed):
		return ClassPolicy
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Crawl-level cancellation, not a host fault: the crawl is being
		// wound down and must not retry its way past the cancellation.
		return ClassPermanent
	case errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, os.ErrDeadlineExceeded),
		errors.Is(err, io.ErrUnexpectedEOF):
		return ClassTransient
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return ClassTransient
	}
	return ClassUnknown
}

// Synthetic statuses the engine charges when an exchange yields no real
// response. StatusSyntheticFailure is the historical wire-compat fallback
// (any unclassified failure); the others make the taxonomy visible in
// traces without colliding with statuses real servers send.
const (
	// StatusSyntheticFailure is the catch-all synthetic status for
	// unclassified or permanent fetch failures (pre-taxonomy, every
	// failure was charged as this).
	StatusSyntheticFailure = 599
	// StatusSyntheticUnavailable is charged for a transient failure that
	// survived every retry, and for circuit-breaker fast-fails: the host
	// was unreachable, not the URL broken.
	StatusSyntheticUnavailable = 503
	// StatusSyntheticPolicy is charged for robots/policy refusals
	// (451 Unavailable For Legal Reasons is the closest wire meaning).
	StatusSyntheticPolicy = 451
)

// SyntheticResponse builds the response the engine charges for a failed
// exchange, by error class. 599 remains the fallback for anything the
// taxonomy cannot place.
func SyntheticResponse(url string, err error) Response {
	switch ClassifyError(err) {
	case ClassPolicy:
		return Response{URL: url, Status: StatusSyntheticPolicy}
	case ClassTransient:
		return Response{URL: url, Status: StatusSyntheticUnavailable}
	default:
		return Response{URL: url, Status: StatusSyntheticFailure}
	}
}

// RetryableStatus reports statuses a real server sends that a retry may
// clear: 429 Too Many Requests and 503 Service Unavailable. The synthetic
// statuses are deliberately excluded — they are verdicts, not answers.
func RetryableStatus(status int) bool {
	return status == 429 || status == 503
}

// TransientResult reports whether a completed exchange is a transient
// failure: a transient-class error, or an otherwise-successful response
// carrying a retryable status. Speculation layers use it to keep failures
// out of caches; the engine uses it to drive the circuit breaker.
func TransientResult(resp Response, err error) bool {
	if err != nil {
		return ClassifyError(err) == ClassTransient
	}
	return RetryableStatus(resp.Status)
}

// UncacheableStatus reports response statuses that must never be recorded
// as durable truth: the retryable statuses (a 503 today says nothing about
// tomorrow) and every synthetic verdict the engine may fabricate.
func UncacheableStatus(status int) bool {
	return RetryableStatus(status) ||
		status == StatusSyntheticFailure || status == StatusSyntheticPolicy
}
