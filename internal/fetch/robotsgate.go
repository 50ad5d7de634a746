package fetch

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"sync"

	"sbcrawl/internal/robots"
)

// ErrRobotsDisallowed reports a URL the site's robots.txt excludes for this
// crawler; no request was issued.
var ErrRobotsDisallowed = errors.New("fetch: disallowed by robots.txt")

// robotsGate caches one robots policy per host and answers admission
// questions for the live fetcher. It is safe for concurrent use: the
// speculative prefetch layer issues overlapping GETs through one fetcher.
type robotsGate struct {
	mu       sync.Mutex
	policies map[string]*robots.Policy
}

// check fetches (once per host) and evaluates robots.txt for the URL. The
// robots.txt request itself bypasses politeness bookkeeping — it is a single
// small fetch per host — but not ctx: a fetch the crawl's cancellation cut
// short returns the context's error and caches no policy.
func (g *robotsGate) check(ctx context.Context, client *http.Client, userAgent, rawURL string) error {
	u, err := url.Parse(rawURL)
	if err != nil {
		return err
	}
	host := u.Scheme + "://" + u.Host
	g.mu.Lock()
	if g.policies == nil {
		g.policies = make(map[string]*robots.Policy)
	}
	policy, ok := g.policies[host]
	g.mu.Unlock()
	if !ok {
		// Fetch outside the lock; concurrent first requests to one host
		// may fetch robots.txt twice, and either (equal) policy wins.
		policy = fetchPolicy(ctx, client, userAgent, host)
		if err := ctxErr(ctx); err != nil {
			return err // cut short: the host gave no answer to cache
		}
		g.mu.Lock()
		if cached, ok := g.policies[host]; ok {
			policy = cached
		} else {
			g.policies[host] = policy
		}
		g.mu.Unlock()
	}
	if !policy.Allowed(userAgent, u.Path) {
		return ErrRobotsDisallowed
	}
	return nil
}

// delay returns the cached Crawl-delay for the URL's host (0 when unknown).
func (g *robotsGate) delay(userAgent, rawURL string) (d int64) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if p, ok := g.policies[u.Scheme+"://"+u.Host]; ok {
		return int64(p.CrawlDelay(userAgent))
	}
	return 0
}

// fetchPolicy retrieves /robots.txt with RFC 9309 semantics: 2xx → parse,
// 4xx → allow all, 5xx/network error → disallow all (conservative). The
// request carries ctx when it is non-nil.
func fetchPolicy(ctx context.Context, client *http.Client, userAgent, host string) *robots.Policy {
	req, err := http.NewRequest(http.MethodGet, host+"/robots.txt", nil)
	if err != nil {
		return robots.AllowAll()
	}
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	req.Header.Set("User-Agent", userAgent)
	resp, err := client.Do(req)
	if err != nil {
		return robots.DisallowAll()
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		body, err := io.ReadAll(io.LimitReader(resp.Body, 512<<10))
		if err != nil {
			return robots.AllowAll()
		}
		return robots.Parse(body)
	case resp.StatusCode >= 500:
		return robots.DisallowAll()
	default:
		return robots.AllowAll()
	}
}
