package fetch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sbcrawl/internal/sitegen"
	"sbcrawl/internal/webserver"
)

func newSimFetcher(t *testing.T) (*Sim, *sitegen.Site) {
	t.Helper()
	p, _ := sitegen.ProfileByCode("cl")
	site := sitegen.Generate(sitegen.Config{Profile: p, Scale: 0.02, Seed: 11})
	return NewSim(webserver.New(site)), site
}

func TestSimGetAndHead(t *testing.T) {
	f, site := newSimFetcher(t)
	resp, err := f.Get(site.Root())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || len(resp.Body) == 0 {
		t.Fatalf("GET root: %+v", resp)
	}
	head, err := f.Head(site.Root())
	if err != nil {
		t.Fatal(err)
	}
	if head.Body != nil || head.Status != 200 {
		t.Errorf("HEAD root: %+v", head)
	}
}

func TestMeterAccounting(t *testing.T) {
	f, site := newSimFetcher(t)
	var m Meter
	resp, _ := f.Get(site.Root())
	vol := m.ChargeGet(resp)
	if vol != int64(len(resp.Body))+webserver.HeaderOverheadBytes {
		t.Errorf("GET volume = %d", vol)
	}
	m.ChargeHead()
	if m.Requests != 2 || m.HeadRequests != 1 {
		t.Errorf("meter = %+v", m)
	}
	if m.BytesTotal != vol+webserver.HeaderOverheadBytes {
		t.Errorf("bytes total = %d", m.BytesTotal)
	}
}

func TestReplayServesFromDatabase(t *testing.T) {
	f, site := newSimFetcher(t)
	r := NewReplay(f)
	first, err := r.Get(site.Root())
	if err != nil {
		t.Fatal(err)
	}
	if r.Misses() != 1 || r.Hits() != 0 {
		t.Fatalf("after first get: hits=%d misses=%d", r.Hits(), r.Misses())
	}
	second, err := r.Get(site.Root())
	if err != nil {
		t.Fatal(err)
	}
	if r.Hits() != 1 {
		t.Errorf("second get must hit the database")
	}
	if string(first.Body) != string(second.Body) {
		t.Error("replayed body differs")
	}
	if r.Stored() != 1 {
		t.Errorf("Stored = %d", r.Stored())
	}
}

func TestReplayHeadFromStoredGet(t *testing.T) {
	f, site := newSimFetcher(t)
	r := NewReplay(f)
	if _, err := r.Get(site.Root()); err != nil {
		t.Fatal(err)
	}
	head, err := r.Head(site.Root())
	if err != nil {
		t.Fatal(err)
	}
	if head.Body != nil {
		t.Error("HEAD from stored GET must drop the body")
	}
	if r.Hits() != 1 {
		t.Errorf("HEAD after GET should be a database hit, hits=%d", r.Hits())
	}
}

func TestHTTPFetcherAgainstLiveServer(t *testing.T) {
	p, _ := sitegen.ProfileByCode("cl")
	site := sitegen.Generate(sitegen.Config{Profile: p, Scale: 0.02, Seed: 13})
	server := webserver.New(site)
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	f := NewHTTP()
	f.MinDelay = 0 // no politeness against our own test server
	resp, err := f.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || len(resp.Body) == 0 {
		t.Fatalf("live GET: %+v", resp)
	}
	if !strings.HasPrefix(resp.MIME, "text/html") {
		t.Errorf("live MIME = %q", resp.MIME)
	}
	head, err := f.Head(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if head.Status != 200 || head.Body != nil {
		t.Errorf("live HEAD: %+v", head)
	}
}

func TestHTTPFetcherSurfacesRedirects(t *testing.T) {
	p, _ := sitegen.ProfileByCode("cl")
	site := sitegen.Generate(sitegen.Config{Profile: p, Scale: 0.02, Seed: 13})
	server := webserver.New(site)
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	var redirPath string
	for _, pg := range site.Pages() {
		if pg.Kind == sitegen.KindRedirect {
			redirPath = strings.TrimPrefix(pg.URL, "https://"+site.Profile.Host)
			break
		}
	}
	if redirPath == "" {
		t.Skip("no redirect generated")
	}
	f := NewHTTP()
	f.MinDelay = 0
	resp, err := f.Get(ts.URL + redirPath)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 301 || resp.Location == "" {
		t.Errorf("redirect must not be auto-followed: %+v", resp)
	}
}

// retryAfterServer answers every request but robots.txt 503 with the given
// Retry-After header, and counts them.
func retryAfterServer(t *testing.T, header string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	hits := new(atomic.Int32)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/robots.txt" {
			http.NotFound(w, r)
			return
		}
		hits.Add(1)
		w.Header().Set("Retry-After", header)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	return ts, hits
}

// TestHTTPReadsRetryAfter: a live 503's Retry-After reaches the Response in
// its delta-seconds form; an HTTP-date or a value that is not all digits
// reads as 0, and one past the cap reads as the cap.
func TestHTTPReadsRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   int
	}{
		{"7", 7},
		{" 12 ", 12},
		{"0", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
		{"-3", 0},
		{"+3", 0},
		{"1.5", 0},
		{"99999999999999999999999", maxRetryAfter},
	} {
		ts, _ := retryAfterServer(t, tc.header)
		f := NewHTTP()
		f.MinDelay = 0
		for _, verb := range []func(string) (Response, error){f.Get, f.Head} {
			resp, err := verb(ts.URL + "/a")
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != 503 || resp.RetryAfter != tc.want {
				t.Errorf("Retry-After %q: status %d, RetryAfter %d; want 503, %d", tc.header, resp.Status, resp.RetryAfter, tc.want)
			}
		}
	}
}

// TestRetrierHonorsLiveRetryAfter: the Retry-After a live server sends raises
// the Retrier's wait above its exponential step, capped at MaxBackoff.
func TestRetrierHonorsLiveRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		maxBackoff time.Duration
		want       time.Duration
	}{
		{10 * time.Second, 7 * time.Second},
		{5 * time.Second, 5 * time.Second},
	} {
		ts, hits := retryAfterServer(t, "7")
		f := NewHTTP()
		f.MinDelay = 0
		r := NewRetrier(f, RetryPolicy{MaxAttempts: 2, MaxBackoff: tc.maxBackoff})
		if resp, err := r.Get(ts.URL + "/a"); err != nil || resp.Status != 503 {
			t.Fatalf("Get = %+v, %v; want the final 503", resp, err)
		}
		if st := r.Stats(); hits.Load() != 2 || st.Retries != 1 || st.BackoffWait != tc.want {
			t.Errorf("MaxBackoff %v: %d requests, %d retries, BackoffWait %v; want 2, 1, %v",
				tc.maxBackoff, hits.Load(), st.Retries, st.BackoffWait, tc.want)
		}
	}
}

func TestHTTPPolitenessDelay(t *testing.T) {
	f := NewHTTP()
	f.MinDelay = 100 * time.Millisecond
	f.Registry = NewRegistry()
	f.Registry.now = func() time.Time { return time.Unix(1000, 0) } // frozen clock
	var slept time.Duration
	f.Registry.sleep = func(d time.Duration) { slept += d }
	f.politeWait("http://example.org/x")
	if slept != 0 {
		t.Errorf("first request slept %v, want no wait", slept)
	}
	f.politeWait("http://example.org/y")
	if slept != 100*time.Millisecond {
		t.Errorf("politeness slept %v, want exactly 100ms", slept)
	}
}

func TestHTTPSharedLimiterAcrossFetchers(t *testing.T) {
	// Two fetchers crawling the same host through one registry must observe
	// each other's requests; a third on another host must not. The frozen
	// clock makes the expected sleeps exact.
	reg := NewRegistry()
	reg.now = func() time.Time { return time.Unix(1000, 0) }
	var slept time.Duration
	reg.sleep = func(d time.Duration) { slept += d }
	a, b := NewHTTP(), NewHTTP()
	a.MinDelay, b.MinDelay = 50*time.Millisecond, 50*time.Millisecond
	a.Registry, b.Registry = reg, reg
	a.politeWait("http://example.org/a")
	b.politeWait("http://example.org/b")
	if slept != 50*time.Millisecond {
		t.Errorf("second fetcher on the same host slept %v, want 50ms", slept)
	}
	slept = 0
	b.politeWait("http://other.example.net/")
	if slept != 0 {
		t.Errorf("distinct host slept %v, want no wait", slept)
	}
}

func TestHTTPRespectsRobots(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/robots.txt", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "User-agent: *\nDisallow: /secret/\nCrawl-delay: 0\n")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html><body>ok</body></html>")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	f := NewHTTP()
	f.MinDelay = 0
	if _, err := f.Get(ts.URL + "/public/page"); err != nil {
		t.Fatalf("allowed page errored: %v", err)
	}
	if _, err := f.Get(ts.URL + "/secret/file.csv"); err != ErrRobotsDisallowed {
		t.Errorf("disallowed page: err = %v, want ErrRobotsDisallowed", err)
	}
	if _, err := f.Head(ts.URL + "/secret/file.csv"); err != ErrRobotsDisallowed {
		t.Errorf("disallowed HEAD: err = %v, want ErrRobotsDisallowed", err)
	}
	// Opt-out restores access.
	f2 := NewHTTP()
	f2.MinDelay = 0
	f2.RespectRobots = false
	if _, err := f2.Get(ts.URL + "/secret/file.csv"); err != nil {
		t.Errorf("RespectRobots=false must not block: %v", err)
	}
}

func TestHTTPRobotsMissingMeansAllowed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html><body>ok</body></html>")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	f := NewHTTP()
	f.MinDelay = 0
	if _, err := f.Get(ts.URL + "/anything"); err != nil {
		t.Errorf("no robots.txt (404) must allow: %v", err)
	}
}

// TestHTTPCancelInterruptsRobotsFetch pins that a crawl cancelled during its
// first request to a host does not wait out the robots.txt fetch: Get
// returns the context's error promptly, and the cut-short fetch leaves no
// policy behind to be read as "disallow all".
func TestHTTPCancelInterruptsRobotsFetch(t *testing.T) {
	reached, unblock := make(chan struct{}, 1), make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case reached <- struct{}{}:
		default:
		}
		select {
		case <-unblock:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(unblock)

	ctx, cancel := context.WithCancel(context.Background())
	f := NewHTTP()
	f.MinDelay = 0
	f.Ctx = ctx
	done := make(chan error, 1)
	go func() {
		_, err := f.Get(ts.URL + "/page")
		done <- err
	}()
	<-reached // the robots.txt request is in flight
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(cancelled); d > 100*time.Millisecond {
			t.Errorf("Get returned %v after cancel, want within 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get ignored the cancellation during the robots.txt fetch")
	}
	f.robots.mu.Lock()
	defer f.robots.mu.Unlock()
	if len(f.robots.policies) != 0 {
		t.Errorf("cancelled robots.txt fetch cached a policy: %v", f.robots.policies)
	}
}

func TestLatencyFetcherDelays(t *testing.T) {
	f, site := newSimFetcher(t)
	l := &Latency{Backend: f, Delay: 5 * time.Millisecond}
	start := time.Now()
	resp, err := l.Get(site.Root())
	if err != nil || resp.Status != 200 {
		t.Fatalf("latency GET: %v %+v", err, resp)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("latency GET returned after %v, want >= 5ms", elapsed)
	}
}

// TestLatencyContextCancellation pins that a cancelled crawl interrupts the
// simulated round-trip sleep promptly.
func TestLatencyContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := &Latency{Backend: &Sim{}, Delay: 5 * time.Second, Ctx: ctx}
	start := time.Now()
	if _, err := l.Get("https://s.org/"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled latency sleep still took %v", d)
	}
}

func TestApplyMIMEBlock(t *testing.T) {
	resp := Response{Status: 200, MIME: "video/mp4", Body: []byte("xxxx")}
	ApplyMIMEBlock(&resp)
	if !resp.Interrupted || resp.Body != nil {
		t.Error("banned MIME must interrupt the download")
	}
	keep := Response{Status: 200, MIME: "text/csv", Body: []byte("a,b")}
	ApplyMIMEBlock(&keep)
	if keep.Interrupted || keep.Body == nil {
		t.Error("target MIME must not be interrupted")
	}
	errResp := Response{Status: 404, MIME: "image/png"}
	ApplyMIMEBlock(&errResp)
	if errResp.Interrupted {
		t.Error("non-200 responses are not downloads to interrupt")
	}
}

// lendingServer is a SimBackend that lends one fixed body and records every
// body handed back to it.
type lendingServer struct {
	body     []byte
	recycled [][]byte
}

func (s *lendingServer) Get(url string) webserver.Response {
	return webserver.Response{URL: url, Status: 200, MIME: "text/html", Body: s.body, ContentLength: len(s.body)}
}

func (s *lendingServer) Head(url string) webserver.Response {
	return webserver.Response{URL: url, Status: 200, MIME: "text/html", ContentLength: len(s.body)}
}

func (s *lendingServer) Recycle(body []byte) { s.recycled = append(s.recycled, body) }

// TestRecycleReachesTheServer: a body handed back to a Sim, a Latency or a
// FaultInjector, in any stacking, reaches the server that lent it, once; a
// wrapper over a fetcher that lends nothing drops it. Over a federation, the
// portal body, which every request for the portal shares, survives being
// handed back through the stack and a GET of every page after it.
func TestRecycleReachesTheServer(t *testing.T) {
	srv := &lendingServer{body: []byte("<html></html>")}
	sim := NewSim(srv)
	for _, c := range []struct {
		name string
		f    Fetcher
	}{
		{"Sim", sim},
		{"Latency", &Latency{Backend: sim, Delay: time.Microsecond}},
		{"FaultInjector", NewFaultInjector(sim, nil)},
		{"FaultInjector over Latency", NewFaultInjector(&Latency{Backend: sim}, nil)},
		{"Latency over FaultInjector", &Latency{Backend: NewFaultInjector(sim, nil)}},
	} {
		srv.recycled = nil
		resp, err := c.f.Get("https://s.org/")
		if err != nil {
			t.Fatal(err)
		}
		rc, ok := c.f.(Recycler)
		if !ok {
			t.Fatalf("%s is no Recycler", c.name)
		}
		rc.Recycle(resp.Body)
		if len(srv.recycled) != 1 || &srv.recycled[0][0] != &srv.body[0] {
			t.Errorf("%s: the server got %d bodies back, want the one it lent", c.name, len(srv.recycled))
		}
	}
	(&Latency{Backend: sizedFetcher{8}}).Recycle([]byte("not lent")) // dropped

	var sites []*sitegen.Site
	for i, code := range []string{"ce", "cl", "ce"} {
		p, _ := sitegen.ProfileByCode(code)
		sites = append(sites, sitegen.Generate(sitegen.Config{Profile: p, Scale: 0.0005, Seed: int64(i + 1)}))
	}
	fed := webserver.NewFederation("federation.test", sites)
	f := NewFaultInjector(&Latency{Backend: NewSim(fed)}, nil)
	portal, err := f.Get(fed.Root())
	if err != nil || len(portal.Body) == 0 {
		t.Fatalf("portal: %v, %d bytes", err, len(portal.Body))
	}
	want := string(portal.Body)
	f.Recycle(portal.Body)
	for _, u := range fed.TargetURLs() {
		if _, err := f.Get(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, site := range sites {
		for _, pg := range site.Pages() {
			f.Get(strings.Replace(pg.URL, "https://"+site.Profile.Host, "", 1))
		}
	}
	if again, _ := f.Get(fed.Root()); string(portal.Body) != want || string(again.Body) != want {
		t.Fatal("handing the portal body back changed the portal")
	}
}

// TestLatencyCtxAllocs: a warm simulated round trip with a Ctx waits on a
// parked timer, so it allocates nothing.
func TestLatencyCtxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l := &Latency{Backend: NewSim(&lendingServer{body: []byte("x")}), Delay: time.Microsecond, Ctx: ctx}
	if n := testing.AllocsPerRun(50, func() { l.Get("https://s.org/") }); n != 0 {
		t.Errorf("a warm Latency.Get with a Ctx allocates %v times, want 0", n)
	}
}

// TestParkedTimersCarryNoStaleTick: a timer parked after a wait its context
// cut short — one that expired meanwhile included, its tick never received —
// waits its full delay when taken again.
func TestParkedTimersCarryNoStaleTick(t *testing.T) {
	for len(timerFree) > 0 {
		<-timerFree
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const d = 5 * time.Millisecond
	for range 10 {
		if err := sleepContext(cancelled, time.Nanosecond); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled wait: %v", err)
		}
		time.Sleep(time.Millisecond) // the parked timer's delay is long past
		start := time.Now()
		if err := sleepContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < d {
			t.Fatalf("a wait of %v on a parked timer returned after %v", d, took)
		}
	}
	if len(timerFree) != 1 {
		t.Fatalf("%d timers parked, want the one every wait took", len(timerFree))
	}
}
