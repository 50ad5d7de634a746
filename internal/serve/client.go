package serve

// Client is the Go face of the crawld HTTP API — what examples, tests, and
// tooling use instead of hand-rolling requests. It is deliberately thin:
// every method is one endpoint, and session re-attach is just Create with
// the same spec.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// Client talks to a crawld daemon.
type Client struct {
	// BaseURL is the daemon address, e.g. "http://127.0.0.1:7090".
	BaseURL string
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
}

// NewClient builds a client for the daemon at baseURL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON response into out; non-2xx
// responses come back as *Error. The body, an error envelope's too, is read
// to its end and unmarshalled out of a pooled buffer (decodeJSON): out keeps
// nothing of the buffer, and the connection goes back to the transport's
// idle pool for the next call.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var reader io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		reader = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, reader)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		apiErr := &Error{Status: resp.StatusCode, Code: "internal"}
		if err := decodeJSON(resp.Body, apiErr); err != nil || apiErr.Message == "" {
			apiErr.Message = fmt.Sprintf("HTTP %d from %s %s", resp.StatusCode, method, path)
		}
		return apiErr
	}
	return decodeJSON(resp.Body, out)
}

// Create creates the session, or attaches to the existing one when the same
// (tenant, name) was created before — including by a previous daemon
// incarnation on the same store.
func (c *Client) Create(ctx context.Context, spec SessionSpec) (SessionStatus, error) {
	var st SessionStatus
	err := c.do(ctx, http.MethodPost, "/v1/sessions", spec, &st)
	return st, err
}

// Get fetches a session's status and results.
func (c *Client) Get(ctx context.Context, id string) (SessionStatus, error) {
	var st SessionStatus
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Wait long-polls the session until its change sequence exceeds after (or
// the daemon's poll window elapses) and returns the then-current status.
func (c *Client) Wait(ctx context.Context, id string, after uint64, wait time.Duration) (SessionStatus, error) {
	var st SessionStatus
	path := fmt.Sprintf("/v1/sessions/%s?seq=%d&wait=%s", url.PathEscape(id), after, wait)
	err := c.do(ctx, http.MethodGet, path, nil, &st)
	return st, err
}

// WaitDone long-polls until the session reaches a terminal state.
func (c *Client) WaitDone(ctx context.Context, id string) (SessionStatus, error) {
	var seen uint64
	for {
		st, err := c.Wait(ctx, id, seen, 10*time.Second)
		if err != nil {
			return st, err
		}
		if st.Done() {
			return st, nil
		}
		seen = st.Seq
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
}

// List fetches session statuses, filtered by tenant when non-empty.
func (c *Client) List(ctx context.Context, tenant string) ([]SessionStatus, error) {
	path := "/v1/sessions"
	if tenant != "" {
		path += "?tenant=" + url.QueryEscape(tenant)
	}
	var out []SessionStatus
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}
