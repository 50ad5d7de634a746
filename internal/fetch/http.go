package fetch

import (
	"context"
	"io"
	"net/http"
	"time"

	"sbcrawl/internal/urlutil"
)

// HTTP is a Fetcher over a real net/http client with crawling-ethics
// politeness: at least MinDelay elapses between two successive requests
// (the paper's "typically 1 second" rule). It never follows redirects
// itself — Algorithm 4 owns that decision — and it interrupts downloads
// whose Content-Type is on the multimedia blocklist.
type HTTP struct {
	// Client is the underlying HTTP client; a default one is installed by
	// NewHTTP.
	Client *http.Client
	// MinDelay is the politeness interval between successive requests.
	MinDelay time.Duration
	// MaxBodyBytes caps downloads; 0 means no cap.
	MaxBodyBytes int64
	// UserAgent identifies the crawler.
	UserAgent string
	// RespectRobots gates every request on the host's robots.txt
	// (RFC 9309); disallowed URLs return ErrRobotsDisallowed without any
	// network traffic. On by default.
	RespectRobots bool
	// Registry spaces requests per host, applies its delay floor and
	// accounts every grant. Nil means the process-wide default registry,
	// which every such fetcher shares: concurrent crawls of the same host
	// observe MinDelay between one another's requests, while crawls of
	// distinct hosts proceed independently. A daemon multiplexing many
	// tenants installs its own Registry on every fetcher it builds.
	Registry *Registry
	// Ctx, when non-nil, cancels politeness waits promptly and aborts
	// in-flight requests when the crawl is cancelled: a fetcher stuck in a
	// MinDelay (or Crawl-delay) sleep wakes immediately instead of
	// finishing the sleep before the engine notices the cancellation.
	Ctx context.Context

	robots robotsGate
}

// NewHTTP builds a polite fetcher with a 1-second delay.
func NewHTTP() *HTTP {
	return &HTTP{
		Client: &http.Client{
			Timeout: 30 * time.Second,
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				return http.ErrUseLastResponse // surface 3xx to the crawler
			},
		},
		MinDelay:      time.Second,
		MaxBodyBytes:  256 << 20,
		UserAgent:     "sbcrawl/1.0 (focused statistics-dataset crawler)",
		RespectRobots: true,
	}
}

// admit enforces robots.txt for the URL, returning ErrRobotsDisallowed when
// the crawler must not fetch it.
func (f *HTTP) admit(url string) error {
	if !f.RespectRobots {
		return nil
	}
	return f.robots.check(f.Ctx, f.Client, f.UserAgent, url)
}

func (f *HTTP) politeWait(url string) error {
	delay := f.MinDelay
	// A robots.txt Crawl-delay longer than our politeness wins.
	if f.RespectRobots {
		if d := time.Duration(f.robots.delay(f.UserAgent, url)); d > delay {
			delay = d
		}
	}
	reg := f.Registry
	if reg == nil {
		reg = defaultRegistry
	}
	return reg.WaitContext(f.Ctx, hostKey(url), delay)
}

// Get implements Fetcher.
func (f *HTTP) Get(url string) (Response, error) {
	resp, body, err := f.exchange(http.MethodGet, url)
	if err != nil {
		return Response{}, err
	}
	defer body.Close()
	if urlutil.IsBlockedMIME(resp.MIME) {
		// Headers told us enough: abandon the body (Sec. 3.4).
		resp.Interrupted = true
		return resp, nil
	}
	reader := io.Reader(body)
	if f.MaxBodyBytes > 0 {
		reader = io.LimitReader(reader, f.MaxBodyBytes)
	}
	resp.Body, err = io.ReadAll(reader)
	if err != nil {
		return Response{}, err
	}
	if resp.ContentLength == 0 {
		resp.ContentLength = len(resp.Body)
	}
	return resp, nil
}

// Head implements Fetcher.
func (f *HTTP) Head(url string) (Response, error) {
	resp, body, err := f.exchange(http.MethodHead, url)
	if err != nil {
		return Response{}, err
	}
	body.Close()
	return resp, nil
}

// exchange is what both verbs share: the robots admit, the polite wait, the
// request under Ctx with the User-Agent, and the status line and headers
// mapped onto a Response. The caller closes the returned body.
func (f *HTTP) exchange(method, url string) (Response, io.ReadCloser, error) {
	if err := f.admit(url); err != nil {
		return Response{}, nil, err
	}
	if err := f.politeWait(url); err != nil {
		return Response{}, nil, err
	}
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return Response{}, nil, err
	}
	if f.Ctx != nil {
		req = req.WithContext(f.Ctx)
	}
	req.Header.Set("User-Agent", f.UserAgent)
	httpResp, err := f.Client.Do(req)
	if err != nil {
		return Response{}, nil, err
	}
	resp := Response{
		URL:        url,
		Status:     httpResp.StatusCode,
		MIME:       httpResp.Header.Get("Content-Type"),
		Location:   httpResp.Header.Get("Location"),
		RetryAfter: retryAfterSeconds(httpResp.Header.Get("Retry-After")),
	}
	if httpResp.ContentLength > 0 {
		resp.ContentLength = int(httpResp.ContentLength)
	}
	return resp, httpResp.Body, nil
}

// maxRetryAfter caps a parsed Retry-After (~68 years), so the retry layer's
// conversion to a time.Duration cannot overflow.
const maxRetryAfter = 1<<31 - 1

// retryAfterSeconds reads a Retry-After header value (net/http has trimmed
// it) in its delta-seconds form (RFC 9110, Sec. 10.2.3). An absent header,
// an HTTP-date and any other value that is not all digits read as 0: no
// wait asked for.
func retryAfterSeconds(v string) int {
	n := 0
	for i := 0; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			return 0
		}
		n = min(n*10+int(v[i]-'0'), maxRetryAfter)
	}
	return n
}
