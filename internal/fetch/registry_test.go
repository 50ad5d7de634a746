package fetch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistrySameHostSpacing checks the fleet politeness invariant:
// concurrent crawls of one host serialize into MinDelay-spaced requests.
// Six grants spaced 20ms apart cannot complete in under 100ms.
func TestRegistrySameHostSpacing(t *testing.T) {
	reg := NewRegistry()
	const delay = 20 * time.Millisecond
	const grants = 6
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < grants/2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg.WaitContext(nil, "https://example.org", delay)
			reg.WaitContext(nil, "https://example.org", delay)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < (grants-1)*delay {
		t.Errorf("6 same-host grants took %v, want >= %v", elapsed, (grants-1)*delay)
	}
}

// TestRegistryDistinctHostsDoNotSerialize checks the other half of the
// invariant: crawls of different hosts proceed in parallel. Four hosts with
// two 50ms-spaced requests each would need >=350ms if they serialized; in
// parallel each host only waits its own 50ms.
func TestRegistryDistinctHostsDoNotSerialize(t *testing.T) {
	reg := NewRegistry()
	const delay = 50 * time.Millisecond
	hosts := []string{"https://a.org", "https://b.org", "https://c.org", "https://d.org"}
	start := time.Now()
	var wg sync.WaitGroup
	for _, h := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg.WaitContext(nil, h, delay)
			reg.WaitContext(nil, h, delay)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed >= 200*time.Millisecond {
		t.Errorf("4 independent hosts took %v, want well under the serialized 350ms", elapsed)
	}
}

// TestRegistryDeterministicWindow pins the exact window arithmetic with
// injected clock seams: the first grant is free, the second sleeps the full
// delay, and a late arrival sleeps only the remainder.
func TestRegistryDeterministicWindow(t *testing.T) {
	reg := NewRegistry()
	now := time.Unix(1000, 0)
	var slept []time.Duration
	reg.now = func() time.Time { return now }
	reg.sleep = func(d time.Duration) { slept = append(slept, d) }

	reg.WaitContext(nil, "h", time.Second)
	if len(slept) != 0 {
		t.Fatalf("first grant slept %v, want none", slept)
	}
	reg.WaitContext(nil, "h", time.Second)
	if len(slept) != 1 || slept[0] != time.Second {
		t.Fatalf("second grant slept %v, want [1s]", slept)
	}
	// 600ms later (grant was claimed at now+1s): only 400ms remain.
	now = now.Add(1600 * time.Millisecond)
	reg.WaitContext(nil, "h", time.Second)
	if len(slept) != 2 || slept[1] != 400*time.Millisecond {
		t.Fatalf("late grant slept %v, want 400ms remainder", slept)
	}
	// Zero delay never waits and never claims.
	reg.WaitContext(nil, "h", 0)
	if len(slept) != 2 {
		t.Fatalf("zero delay slept: %v", slept)
	}
}

func TestHostKey(t *testing.T) {
	cases := map[string]string{
		"https://example.org/a/b?q=1":   "example.org",
		"http://example.org:8080/x":     "example.org:8080",
		"not a url at all":              "not a url at all",
		"https://other.example.net/doc": "other.example.net",
		// http→https of one site must share a politeness window.
		"http://example.org/a/b": "example.org",
	}
	for in, want := range cases {
		if got := hostKey(in); got != want {
			t.Errorf("hostKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWaitContextInterruptsPolitenessSleep pins the satellite contract: a
// cancelled context wakes a politeness sleep immediately instead of letting
// it run out, and the aborted wait does not claim the host's window.
func TestWaitContextInterruptsPolitenessSleep(t *testing.T) {
	reg := NewRegistry()
	const delay = 5 * time.Second
	// First request claims the window without sleeping.
	if err := reg.WaitContext(context.Background(), "h", delay); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- reg.WaitContext(ctx, "h", delay) }()
	time.Sleep(10 * time.Millisecond) // let the waiter reach the sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if woke := time.Since(start); woke > delay/2 {
			t.Fatalf("cancellation took %v; the sleep was not interrupted", woke)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitContext ignored the cancellation")
	}
}

// TestWaitContextAlreadyCancelled pins that a dead context short-circuits
// before any sleeping or window claiming.
func TestWaitContextAlreadyCancelled(t *testing.T) {
	reg := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := reg.WaitContext(ctx, "h", time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The window must be unclaimed: a live waiter proceeds immediately.
	start := time.Now()
	if err := reg.WaitContext(context.Background(), "h", time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("live waiter blocked %v behind a cancelled one", d)
	}
}

// grantRecord is one politeness grant observed by the fairness tests:
// which tenant got the host's window, and when.
type grantRecord struct {
	tenant int
	seq    int // tenant-local request number
	at     time.Time
}

// hammerHost runs `tenants` goroutines — each a distinct tenant issuing
// `perTenant` sequential requests — against one host through wait, and
// returns the grants in grant order.
func hammerHost(tenants, perTenant int, wait func(host string, tenant int)) []grantRecord {
	var (
		mu     sync.Mutex
		grants []grantRecord
		wg     sync.WaitGroup
	)
	seq := make([]int, tenants)
	start := make(chan struct{})
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			<-start
			for k := 0; k < perTenant; k++ {
				wait("https://shared.example.org/", tn)
				mu.Lock()
				seq[tn]++
				grants = append(grants, grantRecord{tenant: tn, seq: seq[tn], at: time.Now()})
				mu.Unlock()
			}
		}(tn)
	}
	close(start)
	wg.Wait()
	return grants
}

// TestRegistryCrossTenantSpacing is the crawld politeness invariant: N
// goroutines from distinct tenants hammering one host through a single
// registry observe MinDelay spacing globally — the host is never contacted
// faster than the delay, no matter how the requests distribute over
// tenants.
func TestRegistryCrossTenantSpacing(t *testing.T) {
	const (
		delay     = 10 * time.Millisecond
		tenants   = 4
		perTenant = 4
	)
	reg := NewRegistry()
	start := time.Now()
	grants := hammerHost(tenants, perTenant, func(host string, _ int) { reg.WaitContext(nil, host, delay) })
	total := tenants * perTenant
	if len(grants) != total {
		t.Fatalf("got %d grants, want %d", len(grants), total)
	}
	// The whole burst cannot beat the politeness budget...
	if elapsed := time.Since(start); elapsed < time.Duration(total-1)*delay {
		t.Errorf("%d cross-tenant grants took %v, want >= %v", total, elapsed, time.Duration(total-1)*delay)
	}
	// ...and every adjacent pair of grants is individually spaced. The
	// grant stamp is taken just after the wait returns, so allow a small
	// scheduling epsilon on the comparison.
	const epsilon = 2 * time.Millisecond
	for i := 1; i < len(grants); i++ {
		if gap := grants[i].at.Sub(grants[i-1].at); gap < delay-epsilon {
			t.Errorf("grants %d→%d spaced %v apart, want >= %v (tenants %d→%d)",
				i-1, i, gap, delay, grants[i-1].tenant, grants[i].tenant)
		}
	}
}

// TestRegistryCrossTenantNearFIFO pins the grant-ordering claim in the
// Registry doc comment: same-host waiters are granted the window one at a
// time, so concurrently waiting tenants are served near-FIFO — round-robin
// in practice, because every re-arriving tenant queues behind the waiters
// already blocked on the host's window. The assertion is a sliding one (no
// tenant is shut out of any 2N-grant window) rather than strict FIFO: the
// very first arrivals race, and the mutex only guarantees ordering once
// waiters are queued.
func TestRegistryCrossTenantNearFIFO(t *testing.T) {
	const (
		delay     = 10 * time.Millisecond
		tenants   = 4
		perTenant = 4
	)
	reg := NewRegistry()
	grants := hammerHost(tenants, perTenant, func(host string, _ int) { reg.WaitContext(nil, host, delay) })
	if len(grants) != tenants*perTenant {
		t.Fatalf("got %d grants, want %d", len(grants), tenants*perTenant)
	}
	window := 2 * tenants
	for lo := 0; lo+window <= len(grants); lo++ {
		seen := make(map[int]bool)
		for _, g := range grants[lo : lo+window] {
			seen[g.tenant] = true
		}
		// A tenant absent from a window must have finished all its
		// requests before the window opened.
		for tn := 0; tn < tenants; tn++ {
			if seen[tn] {
				continue
			}
			lastPos := -1
			for p, g := range grants {
				if g.tenant == tn {
					lastPos = p
				}
			}
			if lastPos >= lo {
				t.Fatalf("tenant %d starved: absent from grant window [%d,%d) but still had requests pending (last grant at %d)",
					tn, lo, lo+window, lastPos)
			}
		}
	}
	// Near-FIFO also bounds how far ahead any tenant races: once waiters
	// queue on the host's window the handoff is FIFO (Go mutexes enter
	// starvation mode after 1ms, and every waiter here sleeps ≥10ms), so
	// drift beyond two rounds means grant ordering broke. Two rounds of
	// slack absorbs the racy start, where a re-arriving tenant can barge
	// past the first woken waiter before starvation mode engages.
	roundOf := make([]int, 0, len(grants))
	for _, g := range grants {
		roundOf = append(roundOf, g.seq)
	}
	maxSeen := 0
	for p, r := range roundOf {
		if r > maxSeen {
			maxSeen = r
		}
		if r < maxSeen-2 {
			t.Fatalf("grant %d is round %d while round %d was already granted: order drifted beyond near-FIFO\norder: %v",
				p, r, maxSeen, roundOf)
		}
	}
}

// TestRegistryCrossTenantSharing is the daemon-shaped variant: distinct
// tenants each own their own HTTP fetcher, all routed through one Registry,
// and per-host spacing still holds globally — the registry, not the
// fetcher, is the politeness authority. Accounting must add up.
func TestRegistryCrossTenantSharing(t *testing.T) {
	const (
		delay     = 10 * time.Millisecond
		tenants   = 3
		perTenant = 3
	)
	reg := NewRegistry()
	start := time.Now()
	grants := hammerHost(tenants, perTenant, func(host string, tn int) {
		// Each tenant's "fetcher": a distinct caller sharing the registry.
		if err := reg.WaitContext(nil, hostKey(host), delay); err != nil {
			t.Errorf("tenant %d wait: %v", tn, err)
		}
	})
	total := tenants * perTenant
	if elapsed := time.Since(start); elapsed < time.Duration(total-1)*delay {
		t.Errorf("%d registry grants took %v, want >= %v", total, elapsed, time.Duration(total-1)*delay)
	}
	if len(grants) != total {
		t.Fatalf("got %d grants, want %d", len(grants), total)
	}
	usage := reg.Usage()
	if len(usage) != 1 {
		t.Fatalf("registry tracked %d hosts, want 1: %+v", len(usage), usage)
	}
	u := usage[0]
	if u.Host != "shared.example.org" {
		t.Errorf("usage host = %q, want shared.example.org", u.Host)
	}
	if u.Grants != total {
		t.Errorf("usage grants = %d, want %d", u.Grants, total)
	}
	if u.Waited <= 0 {
		t.Errorf("contended host reports zero waited time")
	}
	if u.LastGrant.IsZero() {
		t.Errorf("usage last-grant never stamped")
	}
	if reg.HostCount() != 1 {
		t.Errorf("HostCount = %d, want 1", reg.HostCount())
	}
}

// politeBackend is a live fetcher in miniature: every GET waits its turn on
// the shared registry before it is answered, and stamps the grant.
type politeBackend struct {
	reg   *Registry
	delay time.Duration

	mu     sync.Mutex
	grants []time.Time
}

func (b *politeBackend) Get(u string) (Response, error) {
	if err := b.reg.WaitContext(nil, hostKey(u), b.delay); err != nil {
		return Response{}, err
	}
	b.mu.Lock()
	b.grants = append(b.grants, time.Now())
	b.mu.Unlock()
	return Response{URL: u, Status: 200, MIME: "text/html"}, nil
}

func (b *politeBackend) Head(u string) (Response, error) { return b.Get(u) }

// TestRegistrySpeculativeSpacing extends the CrossTenant family to the
// speculation window: two crawls' Prefetchers, each launching a window of
// concurrent speculative GETs at one host through a shared Registry, still
// contact the host MinDelay apart — a wide window (PrefetchAuto at its
// ceiling) gets no politeness exemption.
func TestRegistrySpeculativeSpacing(t *testing.T) {
	const (
		delay  = 10 * time.Millisecond
		window = 4
	)
	reg := NewRegistry()
	backend := &politeBackend{reg: reg, delay: delay}
	var crawls []*Prefetcher
	for c := 0; c < 2; c++ {
		pf := NewPrefetcher(backend, nil)
		crawls = append(crawls, pf)
		var urls []string
		for i := 0; i < window; i++ {
			urls = append(urls, fmt.Sprintf("https://shared.example.org/c%d/p%d", c, i))
		}
		pf.Hint(window, urls...) // a full window launches at once
	}
	for _, pf := range crawls {
		pf.Close() // waits for the window to drain
	}
	grants := backend.grants
	if len(grants) != 2*window {
		t.Fatalf("%d polite grants, want %d", len(grants), 2*window)
	}
	// Grant stamps are taken just after the registry wait returns, so allow
	// a small scheduling epsilon.
	const epsilon = 2 * time.Millisecond
	for i := 1; i < len(grants); i++ {
		if gap := grants[i].Sub(grants[i-1]); gap < delay-epsilon {
			t.Errorf("speculative grants %d→%d spaced %v apart, want >= %v", i-1, i, gap, delay)
		}
	}
	if usage := reg.Usage(); len(usage) != 1 || usage[0].Grants != 2*window {
		t.Errorf("registry usage = %+v, want %d grants on one host", usage, 2*window)
	}
}

// TestRegistryFloor pins the politeness floor: a fetcher asking for less
// politeness than the registry's floor is slowed to the floor, one asking
// for more keeps its own delay.
func TestRegistryFloor(t *testing.T) {
	reg := NewRegistry()
	now := time.Unix(1000, 0)
	var slept []time.Duration
	reg.now = func() time.Time { return now }
	reg.sleep = func(d time.Duration) { slept = append(slept, d) }
	reg.SetFloor(50 * time.Millisecond)

	// First grant is free but claims a floor-wide (50ms) window; the second
	// asked for 10ms yet sleeps the full floor.
	reg.WaitContext(nil, "h", 10*time.Millisecond)
	reg.WaitContext(nil, "h", 10*time.Millisecond)
	if len(slept) != 1 || slept[0] != 50*time.Millisecond {
		t.Fatalf("floored wait slept %v, want [50ms]", slept)
	}
	// A delay above the floor wins: arrive when the window is open, claim
	// 80ms, and the next floored request waits the full 80ms.
	now = now.Add(100 * time.Millisecond) // past the claimed window
	reg.WaitContext(nil, "h", 80*time.Millisecond)
	if len(slept) != 1 {
		t.Fatalf("open-window wait slept %v, want no new sleeps", slept)
	}
	reg.WaitContext(nil, "h", 10*time.Millisecond)
	if len(slept) != 2 || slept[1] != 80*time.Millisecond {
		t.Fatalf("wait after the 80ms claim slept %v, want second sleep 80ms", slept)
	}
}

// TestRegistryUsageDoesNotWaitOnSleeper pins that the accounting stays
// readable while a same-host waiter sleeps out its window holding the slot:
// /v1/hosts must never wait out a politeness delay.
func TestRegistryUsageDoesNotWaitOnSleeper(t *testing.T) {
	reg := NewRegistry()
	const delay = time.Second
	if err := reg.WaitContext(context.Background(), "h", delay); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- reg.WaitContext(ctx, "h", delay) }()

	reg.mu.Lock()
	s := reg.hosts["h"]
	reg.mu.Unlock()
	for deadline := time.Now().Add(time.Second); s.mu.TryLock(); {
		s.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the second waiter never took the host's slot")
		}
		time.Sleep(time.Millisecond)
	}

	type snapshot struct {
		usage []HostUsage
		n     int
		took  time.Duration
	}
	got := make(chan snapshot, 1)
	go func() {
		start := time.Now()
		usage, n := reg.Usage(), reg.HostCount()
		got <- snapshot{usage, n, time.Since(start)}
	}()
	select {
	case snap := <-got:
		if snap.took > 50*time.Millisecond {
			t.Errorf("Usage + HostCount took %v behind a sleeping waiter, want < 50ms", snap.took)
		}
		if snap.n != 1 || len(snap.usage) != 1 || snap.usage[0].Grants != 1 {
			t.Errorf("HostCount = %d, usage = %+v; want one host with the first grant", snap.n, snap.usage)
		}
	case <-time.After(2 * delay):
		t.Fatal("Usage + HostCount blocked behind a sleeping waiter")
	}
	cancel()
	<-done
}

// TestRegistryEvictionDropsAccounting pins that eviction bounds the whole
// slot: once the table is full, a new host sweeps out the idle ones —
// window and accounting together — while a host whose window is still open
// or whose slot a waiter holds stays, accounting intact.
func TestRegistryEvictionDropsAccounting(t *testing.T) {
	reg := NewRegistry()
	now := time.Unix(1000, 0)
	reg.now = func() time.Time { return now }
	entered, release := make(chan struct{}), make(chan struct{})
	reg.sleep = func(time.Duration) { entered <- struct{}{}; <-release }

	// "held": a second waiter sleeps on the host's window, holding the slot.
	reg.WaitContext(nil, "held", time.Second)
	done := make(chan struct{})
	go func() { reg.WaitContext(nil, "held", time.Second); close(done) }()
	<-entered
	// "open": a window claimed an hour ahead.
	reg.WaitContext(nil, "open", time.Hour)
	for i := 0; reg.HostCount() < evictThreshold; i++ {
		reg.WaitContext(nil, fmt.Sprintf("idle%d", i), time.Second)
	}

	now = now.Add(2 * evictGrace)
	reg.WaitContext(nil, "new", time.Second)
	var hosts []string
	for _, u := range reg.Usage() {
		hosts = append(hosts, u.Host)
	}
	if got := strings.Join(hosts, ","); got != "held,new,open" {
		t.Errorf("hosts after the sweep = %s, want held,new,open", got)
	}
	if n := reg.HostCount(); n != 3 {
		t.Errorf("HostCount after the sweep = %d, want 3", n)
	}

	close(release)
	<-done
	if u := reg.Usage(); len(u) != 3 || u[0].Host != "held" || u[0].Grants != 2 {
		t.Errorf("usage = %+v, want held's two grants kept through the sweep", u)
	}
}

// TestHTTPFetcherRoutesRegistry checks the wiring: an HTTP fetcher with a
// Registry installed takes politeness from it (and is accounted in it), not
// from the default registry.
func TestHTTPFetcherRoutesRegistry(t *testing.T) {
	reg := NewRegistry()
	f := NewHTTP()
	f.Registry = reg
	f.RespectRobots = false
	f.MinDelay = time.Millisecond
	if err := f.politeWait("https://reg.example.org/a"); err != nil {
		t.Fatal(err)
	}
	if err := f.politeWait("https://reg.example.org/b"); err != nil {
		t.Fatal(err)
	}
	usage := reg.Usage()
	if len(usage) != 1 || usage[0].Host != "reg.example.org" || usage[0].Grants != 2 {
		t.Fatalf("registry usage after 2 polite waits = %+v, want reg.example.org with 2 grants", usage)
	}
}

// ExampleRegistry shows the daemon pattern: one registry owned by the
// process, every tenant's fetcher routed through it.
func ExampleRegistry() {
	reg := NewRegistry()
	reg.SetFloor(time.Second) // no tenant may go below 1s politeness
	for _, tenant := range []string{"a", "b"} {
		f := NewHTTP()
		f.Registry = reg
		_ = f
		_ = tenant
	}
	fmt.Println(reg.HostCount())
	// Output: 0
}
