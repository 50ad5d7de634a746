package serve

// Daemon acceptance tests. The load-bearing one is
// TestServeResumeEquivalence — stop the daemon mid-session, restart it on
// the same store, re-attach, and the final Results must equal the
// library's CrawlSites over the same sites — extending the crawl invariant
// through the serve layer.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sbcrawl"
)

// daemon spins up a Server plus its HTTP front, returning a connected
// client and a shutdown func (kill=true closes only the daemon, keeping the
// store directory for a restart).
func daemon(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, NewClient(ts.URL), func() {
		ts.Close()
		srv.Close()
	}
}

// call is one request of the daemon's HTTP API through the client's
// transport, its answer decoded into a T.
func call[T any](ctx context.Context, c *Client, method, path string) (T, error) {
	var out T
	err := c.do(ctx, method, path, nil, &out)
	return out, err
}

func TestSessionLifecycle(t *testing.T) {
	_, client, stop := daemon(t, Config{StorePath: t.TempDir(), Workers: 2})
	defer stop()
	ctx := context.Background()

	spec := SessionSpec{
		Tenant: "acme",
		Name:   "nightly",
		Crawl:  CrawlSpec{Strategy: "sb", Seed: 7},
		Sites: []SiteSpec{
			{Code: "cl", Scale: 0.01, Seed: 1},
			{Code: "cn", Scale: 0.01, Seed: 2},
		},
	}
	created, err := client.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if created.ID != SessionID("acme", "nightly") || created.Units != 2 || created.State != StateRunning {
		t.Fatalf("created = %+v", created)
	}

	// Same spec attaches; a different one conflicts.
	again, err := client.Create(ctx, spec)
	if err != nil || again.ID != created.ID {
		t.Fatalf("re-create: %+v, %v", again, err)
	}
	badSpec := spec
	badSpec.Crawl.Seed = 8
	var apiErr *Error
	if _, err := client.Create(ctx, badSpec); !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Fatalf("conflicting spec error = %v, want 409", err)
	}

	final, err := client.WaitDone(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.UnitsDone != 2 || len(final.Results) != 2 {
		t.Fatalf("final = %+v", final)
	}
	for i, ur := range final.Results {
		if ur.Err != "" || ur.Result == nil {
			t.Fatalf("unit %d: %+v", i, ur)
		}
	}
	if final.Results[0].Label != "cl" || final.Results[1].Label != "cn" {
		t.Fatalf("labels = %q, %q", final.Results[0].Label, final.Results[1].Label)
	}
	if final.Requests == 0 || final.Targets == 0 {
		t.Fatalf("final totals empty: %+v", final)
	}

	// The session's crawls match the library fleet exactly: same store-less
	// results as CrawlSites with the same derivation.
	want := libraryResults(t, spec)
	for i, ur := range final.Results {
		if got := outcome(ur.Result); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("unit %d diverged from CrawlSites: req %d vs %d", i, got.Requests, want[i].Requests)
		}
	}

	// Listing and stats see the finished session.
	list, err := client.List(ctx, "acme")
	if err != nil || len(list) != 1 || list[0].State != StateDone {
		t.Fatalf("list = %+v, %v", list, err)
	}
	stats, err := call[Stats](ctx, client, http.MethodGet, "/v1/stats")
	if err != nil || stats.Sessions != 1 || stats.Active != 0 || stats.Tenants != 1 {
		t.Fatalf("stats = %+v, %v", stats, err)
	}
	if _, err := client.Get(ctx, "feedfacefeedface"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("missing session error = %v, want 404", err)
	}
}

// TestServeResumeEquivalence is the daemon axis of the crawl invariant: a
// session whose daemon is stopped and restarted on the same store, the
// client re-attaching with the same spec each time, must end with the
// Results the library's CrawlSites computes over the same sites.
func TestServeResumeEquivalence(t *testing.T) {
	rows := []serveDraw{
		// Two SB units side by side, speculating.
		{Sites: []SiteSpec{{Code: "cl", Scale: 0.01, Seed: 3}, {Code: "ju", Scale: 0.01, Seed: 4}},
			Crawl: CrawlSpec{Strategy: "sb", Seed: 11, SimLatency: 200 * time.Microsecond, Prefetch: 4}, Workers: 2, Restarts: []int{60}},
		// The small second unit finishes while the first is mid-crawl: a
		// finished unit beside an interrupted one, across two restarts.
		{Sites: []SiteSpec{{Code: "ju", Scale: 0.005, Seed: 4}, {Code: "cl", Scale: 0.002, Seed: 3}},
			Crawl: CrawlSpec{Strategy: "sb", Seed: 5, SimLatency: 500 * time.Microsecond}, Workers: 2, Restarts: []int{150, 250}},
		// Faults with retries, a wide window and a budget on one worker: the
		// first unit finishes between the restarts, the second starts late.
		{Sites: []SiteSpec{{Code: "cn", Scale: 0.01, Seed: 2}, {Code: "be", Scale: 0.005, Seed: 1}},
			Crawl: CrawlSpec{Strategy: "random", Seed: 9, MaxRequests: 80, Prefetch: 16, FaultRate: 0.1, FaultSeed: 99,
				SimLatency: 200 * time.Microsecond}, Workers: 1, Restarts: []int{30, 110}},
	}
	for i, d := range rows {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkServeDraw(t, d) })
	}
}

// A serveDraw is one point of the daemon axis: a session's sites and crawl,
// the daemon's worker pool, and the session requests at which the daemon is
// stopped and restarted.
type serveDraw struct {
	Sites    []SiteSpec
	Crawl    CrawlSpec
	Workers  int
	Restarts []int
}

// checkServeDraw runs the draw's session, checkpointing at every request,
// through one daemon per restart point plus one that finishes it. Each
// daemon is stopped once the session's Requests reach its point (or the
// session is done). The terminal Results must equal the library's, and a
// unit that had finished before a restart must come back from its
// done-record.
func checkServeDraw(t *testing.T, d serveDraw) {
	d.Crawl.CheckpointEvery = 1
	spec := SessionSpec{Tenant: "acme", Name: "restarted", Crawl: d.Crawl, Sites: d.Sites}
	want := libraryResults(t, spec)
	dir, ctx := t.TempDir(), context.Background()
	finished := make([]bool, len(d.Sites))
	var last SessionStatus
	for leg, k := range append(slices.Clone(d.Restarts), -1) {
		func() {
			_, client, stop := daemon(t, Config{StorePath: dir, Workers: d.Workers})
			defer stop()
			st, err := client.Create(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if st.ID != SessionID(spec.Tenant, spec.Name) {
				t.Fatalf("daemon %d attached the spec to session %s", leg, st.ID)
			}
			for !st.Done() && (k < 0 || st.Requests < k) {
				if st, err = client.Wait(ctx, st.ID, st.Seq, 10*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			last = st
		}()
		for i, ur := range last.Results {
			finished[i] = finished[i] || k >= 0 && ur.Result != nil
		}
		t.Logf("daemon %d stopped at %d requests (%s), units finished %v", leg, last.Requests, last.State, finished)
	}
	if last.State != StateDone || len(last.Results) != len(want) {
		t.Fatalf("the session ended %q with %d results, want done with %d", last.State, len(last.Results), len(want))
	}
	requests, targets := 0, 0
	for i, ur := range last.Results {
		if ur.Label != d.Sites[i].Code || ur.Err != "" || ur.Result == nil {
			t.Fatalf("unit %d: %+v", i, ur)
		}
		if got := outcome(ur.Result); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("unit %d diverged from CrawlSites: req=%d targets=%d, want req=%d targets=%d",
				i, got.Requests, len(got.Targets), want[i].Requests, len(want[i].Targets))
		}
		if finished[i] && (ur.Result.Store == nil || !ur.Result.Store.Completed) {
			t.Errorf("unit %d finished before a restart but was not served from its done-record: %+v", i, ur.Result.Store)
		}
		requests, targets = requests+want[i].Requests, targets+len(want[i].Targets)
	}
	if last.Requests != requests || last.Targets != targets {
		t.Errorf("session totals %d requests, %d targets; CrawlSites %d, %d", last.Requests, last.Targets, requests, targets)
	}
}

// libraryResults crawls the spec's sites with sbcrawl.CrawlSites, without a
// store, and returns each unit's outcome as the wire carries it.
func libraryResults(t *testing.T, spec SessionSpec) []*sbcrawl.Result {
	var sites []*sbcrawl.Site
	for _, sp := range spec.Sites {
		site, err := sbcrawl.GenerateSite(sp.Code, sp.Scale, sp.Seed)
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, site)
	}
	fr, err := sbcrawl.CrawlSites(sites, spec.Crawl.config(), sbcrawl.FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var out []*sbcrawl.Result
	for _, s := range fr.Sites {
		raw, err := json.Marshal(s.Result)
		if err != nil {
			t.Fatal(err)
		}
		var res sbcrawl.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		out = append(out, outcome(&res))
	}
	return out
}

// outcome returns a copy of res without its diagnostics (Store, Faults):
// the part of a Result no restart may change.
func outcome(res *sbcrawl.Result) *sbcrawl.Result {
	out := *res
	out.Store, out.Faults = nil, nil
	return &out
}

// TestServeCancelDurable: cancelling is observable, stops the work, and
// survives a restart — the next daemon does not resurrect the session.
func TestServeCancelDurable(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := SessionSpec{
		Tenant: "acme",
		Name:   "doomed",
		Crawl:  CrawlSpec{Strategy: "sb", Seed: 2, SimLatency: 2 * time.Millisecond},
		Sites:  []SiteSpec{{Code: "cl", Scale: 0.01, Seed: 5}},
	}
	_, client, stop := daemon(t, Config{StorePath: dir, Workers: 1})
	created, err := client.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := call[SessionStatus](ctx, client, http.MethodDelete, "/v1/sessions/"+created.ID)
	if err != nil || cancelled.State != StateCancelled {
		t.Fatalf("cancel = %+v, %v", cancelled, err)
	}
	stop()

	srv2, client2, stop2 := daemon(t, Config{StorePath: dir, Workers: 1})
	defer stop2()
	got, err := client2.Get(ctx, created.ID)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("after restart: %+v, %v", got, err)
	}
	if q := srv2.sched.queuedTotal(); q != 0 {
		t.Fatalf("cancelled session re-enqueued %d units", q)
	}
}

// TestServeShutdownLeavesNoGoroutine: once a daemon's sessions have
// finished and it shuts down, runtime.NumGoroutine is back at its count
// before the daemon — its workers, the crawls' Prefetcher workers and its
// HTTP front are gone (httptest's Close also closes the default transport's
// idle connections).
func TestServeShutdownLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx := context.Background()
	_, client, stop := daemon(t, Config{StorePath: t.TempDir(), Workers: 2})
	spec := SessionSpec{
		Tenant: "acme",
		Name:   "windowed",
		Crawl:  CrawlSpec{Strategy: "sb", Seed: 3, Prefetch: sbcrawl.PrefetchAuto, SimLatency: 100 * time.Microsecond},
		Sites:  []SiteSpec{{Code: "cl", Scale: 0.01, Seed: 1}, {Code: "cn", Scale: 0.01, Seed: 2}},
	}
	created, err := client.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := client.WaitDone(ctx, created.ID); err != nil || done.State != StateDone {
		t.Fatalf("session = %+v, %v", done, err)
	}
	stop()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after shutdown, %d before the daemon", runtime.NumGoroutine(), before)
		}
	}
}

// TestServeStoreLocked pins the typed lock error through the daemon: a
// store another process (here: another handle) owns fails construction
// with sbcrawl.ErrStoreLocked and an actionable message.
func TestServeStoreLocked(t *testing.T) {
	dir := t.TempDir()
	st, err := sbcrawl.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := New(Config{StorePath: dir}); !errors.Is(err, sbcrawl.ErrStoreLocked) {
		t.Fatalf("New on a locked store = %v, want ErrStoreLocked", err)
	}
}

// TestAdmissionLimits drives each limit to rejection and checks the typed
// 429 envelope.
func TestAdmissionLimits(t *testing.T) {
	_, client, stop := daemon(t, Config{
		StorePath: t.TempDir(),
		Workers:   1,
		Limits:    Limits{TenantSessions: 1, TenantQueue: 4, SessionUnits: 3},
	})
	defer stop()
	ctx := context.Background()
	slowCrawl := CrawlSpec{Strategy: "sb", Seed: 1, SimLatency: 20 * time.Millisecond}
	site := SiteSpec{Code: "cl", Scale: 0.01, Seed: 1}

	check429 := func(t *testing.T, err error) {
		t.Helper()
		var apiErr *Error
		if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != "limit_exceeded" {
			t.Fatalf("err = %v, want typed 429 limit_exceeded", err)
		}
	}

	// SessionUnits: 4 > 3 rejected outright.
	_, err := client.Create(ctx, SessionSpec{
		Tenant: "acme", Name: "too-big", Crawl: slowCrawl,
		Sites: []SiteSpec{site, {Code: "cl", Scale: 0.01, Seed: 2}, {Code: "cl", Scale: 0.01, Seed: 3}, {Code: "cl", Scale: 0.01, Seed: 4}},
	})
	check429(t, err)

	// The slow session occupies the single worker and the tenant's one
	// session slot.
	first, err := client.Create(ctx, SessionSpec{Tenant: "acme", Name: "slow", Crawl: slowCrawl, Sites: []SiteSpec{site}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Create(ctx, SessionSpec{Tenant: "acme", Name: "second", Crawl: slowCrawl, Sites: []SiteSpec{site}})
	check429(t, err)

	// Another tenant is unaffected by acme's limits — and then fills its
	// own queue: 3 queued units + 3 more would exceed TenantQueue=4.
	if _, err := client.Create(ctx, SessionSpec{
		Tenant: "beta", Name: "q1", Crawl: slowCrawl,
		Sites: []SiteSpec{{Code: "cl", Scale: 0.01, Seed: 6}, {Code: "cl", Scale: 0.01, Seed: 7}, {Code: "cl", Scale: 0.01, Seed: 8}},
	}); err != nil {
		t.Fatal(err)
	}
	_, err = client.Create(ctx, SessionSpec{
		Tenant: "beta", Name: "q2", Crawl: slowCrawl,
		Sites: []SiteSpec{{Code: "cl", Scale: 0.01, Seed: 9}, {Code: "cl", Scale: 0.01, Seed: 10}, {Code: "cl", Scale: 0.01, Seed: 11}},
	})
	check429(t, err)

	// Cancelling the blocker frees acme's session slot.
	if _, err := call[SessionStatus](ctx, client, http.MethodDelete, "/v1/sessions/"+first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Create(ctx, SessionSpec{Tenant: "acme", Name: "third", Crawl: slowCrawl, Sites: []SiteSpec{site}}); err != nil {
		t.Fatalf("create after cancel: %v", err)
	}
}

// TestSchedulerFairness pins the stride scheduler deterministically: with
// tenants at weight 1 and 3 both saturated, dispatches over any window
// split ~1:3, and the light tenant is never starved.
func TestSchedulerFairness(t *testing.T) {
	s := newScheduler()
	lightSess, heavySess := &session{}, &session{}
	tag := func(sess *session, n int) []*unit {
		units := make([]*unit, n)
		for i := range units {
			units[i] = &unit{sess: sess, index: i}
		}
		return units
	}
	s.enqueue("light", 1, tag(lightSess, 40))
	s.enqueue("heavy", 3, tag(heavySess, 40))
	light, heavy := 0, 0
	lastLight := -1
	for i := 0; i < 40; i++ {
		u, ok := s.next()
		if !ok {
			t.Fatal("scheduler closed early")
		}
		if u.sess == lightSess {
			light++
			if lastLight >= 0 && i-lastLight > 8 {
				t.Fatalf("light tenant starved: gap of %d dispatches", i-lastLight)
			}
			lastLight = i
		} else {
			heavy++
		}
	}
	if light < 8 || light > 12 || heavy < 28 || heavy > 32 {
		t.Fatalf("40 dispatches split light=%d heavy=%d, want ~10/30", light, heavy)
	}
}

// TestServeNoStarvation is the end-to-end fairness claim: a light tenant's
// single crawl, submitted after a heavy tenant's 12-unit fleet, still
// finishes long before the fleet does.
func TestServeNoStarvation(t *testing.T) {
	_, client, stop := daemon(t, Config{StorePath: t.TempDir(), Workers: 2})
	defer stop()
	ctx := context.Background()
	crawl := CrawlSpec{Strategy: "sb", Seed: 3, SimLatency: time.Millisecond}

	heavySites := make([]SiteSpec, 12)
	for i := range heavySites {
		heavySites[i] = SiteSpec{Code: "cl", Scale: 0.01, Seed: int64(100 + i)}
	}
	heavy, err := client.Create(ctx, SessionSpec{Tenant: "heavy", Name: "fleet", Crawl: crawl, Sites: heavySites})
	if err != nil {
		t.Fatal(err)
	}
	light, err := client.Create(ctx, SessionSpec{Tenant: "light", Name: "one", Crawl: crawl,
		Sites: []SiteSpec{{Code: "cl", Scale: 0.01, Seed: 200}}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := client.WaitDone(ctx, light.ID); err != nil {
		t.Fatal(err)
	}
	heavyNow, err := client.Get(ctx, heavy.ID)
	if err != nil {
		t.Fatal(err)
	}
	if heavyNow.State == StateDone {
		t.Fatal("heavy fleet finished before the light tenant's single crawl — fairness gave the light tenant nothing")
	}
	if _, err := client.WaitDone(ctx, heavy.ID); err != nil {
		t.Fatal(err)
	}
}

// TestLiveSessionSharedHost runs two tenants' live sessions against one
// HTTP host and checks the daemon registry enforced cross-tenant politeness
// accounting on it: every request that reached the host was granted a
// window in the one shared registry entry. Both tenants submit the same live
// Config, so they share a replay namespace and whichever session runs second
// may be served some pages from the store; how many is a matter of timing,
// which is why the grants are held to the backend's own hit count rather
// than to 2 × MaxRequests.
func TestLiveSessionSharedHost(t *testing.T) {
	site, err := sbcrawl.GenerateSite("cl", 0.01, 9)
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64 // robots.txt is fetched outside politeness bookkeeping
	pages := site.Handler()
	web := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/robots.txt" {
			hits.Add(1)
		}
		pages.ServeHTTP(w, r)
	}))
	defer web.Close()

	srv, client, stop := daemon(t, Config{StorePath: t.TempDir(), Workers: 2})
	defer stop()
	ctx := context.Background()
	crawl := CrawlSpec{Strategy: "sb", Seed: 1, MaxRequests: 8, Politeness: time.Millisecond}

	var ids []string
	for _, tenant := range []string{"acme", "beta"} {
		st, err := client.Create(ctx, SessionSpec{Tenant: tenant, Name: "live", Crawl: crawl, Roots: []string{web.URL + "/"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		final, err := client.WaitDone(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.Results[0].Err != "" {
			t.Fatalf("live unit failed: %s", final.Results[0].Err)
		}
	}
	hosts, err := call[[]HostStatus](ctx, client, http.MethodGet, "/v1/hosts")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 1 {
		t.Fatalf("registry hosts = %+v, want exactly the shared host", hosts)
	}
	if got := int64(hosts[0].Grants); got != hits.Load() || got < 8 {
		t.Fatalf("shared host grants = %d, backend saw %d requests; want equal (both tenants' requests accounted) and >= 8",
			got, hits.Load())
	}
	if srv.hosts.HostCount() != 1 {
		t.Fatalf("HostCount = %d", srv.hosts.HostCount())
	}
	// The wire keys of GET /v1/hosts are an API contract.
	raw, err := json.Marshal(hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"host", "grants", "waited", "last_grant"} {
		if _, ok := keys[k]; !ok || len(keys) != 4 {
			t.Errorf("/v1/hosts entry %s lacks key %q (want exactly host, grants, waited, last_grant)", raw, k)
		}
	}
}

// TestCreateTakesOneJSONValue: a POST /v1/sessions body is one JSON spec.
// Trailing whitespace is fine; a valid spec followed by anything else is 400
// invalid and creates nothing.
func TestCreateTakesOneJSONValue(t *testing.T) {
	srv, client, stop := daemon(t, Config{StorePath: t.TempDir(), Workers: 1})
	defer stop()
	spec := `{"tenant":"acme","name":"one","crawl":{"strategy":"sb","seed":1,"max_requests":5},"sites":[{"code":"cl","scale":0.01,"seed":1}]}`
	for _, c := range []struct {
		body string
		want int
	}{
		{spec + `{"tenant":"acme","name":"two"}`, http.StatusBadRequest},
		{spec + " x", http.StatusBadRequest},
		{spec + " \n\t", http.StatusOK},
	} {
		resp, err := http.Post(client.BaseURL+"/v1/sessions", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr Error
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != c.want || (c.want == http.StatusBadRequest && apiErr.Code != "invalid") {
			t.Errorf("POST %q: HTTP %d %+v, %v; want %d", c.body, resp.StatusCode, apiErr, err, c.want)
		}
	}
	if n := srv.Stats().Sessions; n != 1 {
		t.Fatalf("%d sessions exist, want 1 (the whitespace-trailed spec's)", n)
	}
}

// TestCreateBodyIsCapped: a POST /v1/sessions body past maxSpecBytes is 400
// invalid and creates nothing, read no further than the cap; a spec padded to
// exactly the cap still creates its session.
func TestCreateBodyIsCapped(t *testing.T) {
	srv, client, stop := daemon(t, Config{StorePath: t.TempDir(), Workers: 1})
	defer stop()
	spec := `{"tenant":"acme","name":"capped","crawl":{"strategy":"sb","seed":1,"max_requests":5},"sites":[{"code":"cl","scale":0.01,"seed":1}]}`
	for _, c := range []struct {
		size int
		want int
	}{
		{maxSpecBytes + 1, http.StatusBadRequest},
		{maxSpecBytes, http.StatusOK},
	} {
		body := spec + strings.Repeat(" ", c.size-len(spec))
		resp, err := http.Post(client.BaseURL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr Error
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != c.want || (c.want == http.StatusBadRequest && apiErr.Code != "invalid") {
			t.Errorf("POST of a %d-byte spec: HTTP %d %+v, %v; want %d", c.size, resp.StatusCode, apiErr, err, c.want)
		}
	}
	if n := srv.Stats().Sessions; n != 1 {
		t.Fatalf("%d sessions exist, want 1 (the spec at the cap)", n)
	}
}

// TestSessionEventsStream: GET /v1/sessions/{id}/events is newline-delimited
// JSON — the session's current status first, one line per change with Seq
// strictly rising, the terminal status last, then the body ends. A finished
// session streams its one terminal line; an unknown id gets the 404 JSON
// error.
func TestSessionEventsStream(t *testing.T) {
	srv, client, stop := daemon(t, Config{StorePath: t.TempDir(), Workers: 1})
	defer stop()
	created, err := client.Create(context.Background(), SessionSpec{
		Tenant: "acme",
		Name:   "events",
		Crawl:  CrawlSpec{Strategy: "sb", Seed: 1, MaxRequests: 400},
		Sites:  []SiteSpec{{Code: "cl", Scale: 0.01, Seed: 1}, {Code: "cn", Scale: 0.01, Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := func(id string) []SessionStatus {
		t.Helper()
		resp, err := http.Get(client.BaseURL + "/v1/sessions/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-ndjson" {
			t.Fatalf("HTTP %d, Content-Type %q", resp.StatusCode, ct)
		}
		var out []SessionStatus
		lines := bufio.NewScanner(resp.Body)
		lines.Buffer(nil, 1<<24)
		for lines.Scan() {
			var st SessionStatus
			if err := json.Unmarshal(lines.Bytes(), &st); err != nil {
				t.Fatalf("line %d: %v", len(out)+1, err)
			}
			out = append(out, st)
		}
		if err := lines.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	live := events(created.ID)
	if len(live) == 0 || live[0].ID != created.ID || live[0].Seq < created.Seq {
		t.Fatalf("first line %+v, want the session at Seq >= %d", live, created.Seq)
	}
	for i := 1; i < len(live); i++ {
		if live[i].Seq <= live[i-1].Seq {
			t.Errorf("line %d: Seq %d after %d", i+1, live[i].Seq, live[i-1].Seq)
		}
		if live[i-1].Done() {
			t.Errorf("line %d follows the terminal status", i+1)
		}
	}
	last := live[len(live)-1]
	if !last.Done() {
		t.Fatalf("the stream ended at a running status: %+v", last)
	}
	final, err := srv.Wait(context.Background(), created.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(last, final) {
		t.Errorf("last line differs from the session the daemon holds:\nline   %+v\ndaemon %+v", last, final)
	}
	if done := events(created.ID); len(done) != 1 || !reflect.DeepEqual(done[0], final) {
		t.Errorf("a finished session streamed %d lines, want its one terminal status", len(done))
	}

	resp, err := http.Get(client.BaseURL + "/v1/sessions/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || resp.StatusCode != http.StatusNotFound ||
		resp.Header.Get("Content-Type") != "application/json" || apiErr.Code != "not_found" {
		t.Errorf("unknown id: HTTP %d %+v, %v; want 404 not_found", resp.StatusCode, apiErr, err)
	}
}
