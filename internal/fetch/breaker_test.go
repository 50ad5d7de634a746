package fetch

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestBreakerTripsAfterThreshold(t *testing.T) {
	b := NewBreaker(BreakerPolicy{FailureThreshold: 3, Cooldown: 4})
	u := "https://dead.org/x"
	for i := 0; i < 3; i++ {
		if !b.Allow(u) {
			t.Fatalf("request %d blocked before the threshold", i)
		}
		b.Observe(u, true)
		if q := b.Quarantined(); i < 2 && len(q) != 0 {
			t.Fatalf("host quarantined before the threshold (failure %d): %v", i, q)
		}
	}
	if b.Allow(u) {
		t.Fatal("open breaker let a request through before cooldown")
	}
	st := b.Stats()
	if st.BreakerTrips != 1 || st.BreakerFastFails != 1 {
		t.Errorf("stats = %+v, want 1 trip, 1 fast-fail", st)
	}
	if got := b.Quarantined(); !reflect.DeepEqual(got, []string{"dead.org"}) {
		t.Errorf("Quarantined = %v, want [dead.org]", got)
	}
	// Other hosts are unaffected.
	if !b.Allow("https://alive.org/y") {
		t.Error("an unrelated host was blocked")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := NewBreaker(BreakerPolicy{FailureThreshold: 3})
	u := "https://shaky.org/x"
	for i := 0; i < 10; i++ {
		if !b.Allow(u) {
			t.Fatalf("request %d blocked", i)
		}
		// Two failures, then a success: the streak never reaches 3.
		b.Observe(u, i%3 != 2)
	}
	if st := b.Stats(); st.BreakerTrips != 0 {
		t.Errorf("interleaved successes still tripped the breaker: %+v", st)
	}
}

func TestBreakerHalfOpenProbeAndRecovery(t *testing.T) {
	b := NewBreaker(BreakerPolicy{FailureThreshold: 2, Cooldown: 3, MaxCooldown: 8})
	u := "https://flaky.org/x"
	b.Allow(u)
	b.Observe(u, true)
	b.Allow(u)
	b.Observe(u, true) // trips
	// Cooldown 3: two fast-fails, then the third Allow is the probe.
	if b.Allow(u) || b.Allow(u) {
		t.Fatal("breaker honored no cooldown")
	}
	if !b.Allow(u) {
		t.Fatal("cooldown elapsed but no half-open probe was admitted")
	}
	// The probe succeeds: the host recovers and leaves the quarantine set.
	b.Observe(u, false)
	if q := b.Quarantined(); len(q) != 0 {
		t.Errorf("recovered host still quarantined: %v", q)
	}
	if !b.Allow(u) {
		t.Error("recovered host still blocked")
	}
}

func TestBreakerFailedProbeDoublesCooldown(t *testing.T) {
	b := NewBreaker(BreakerPolicy{FailureThreshold: 1, Cooldown: 2, MaxCooldown: 4})
	u := "https://dying.org/x"
	b.Allow(u)
	b.Observe(u, true) // trip, cooldown 2
	if b.Allow(u) {    // fast-fail 1
		t.Fatal("no cooldown")
	}
	if !b.Allow(u) { // probe
		t.Fatal("no probe after cooldown")
	}
	b.Observe(u, true)
	if q := b.Quarantined(); !reflect.DeepEqual(q, []string{"dying.org"}) {
		t.Fatalf("failed probe left the quarantine set %v; the host never recovered", q)
	}
	// Cooldown doubled to 4: three fast-fails before the next probe.
	for i := 0; i < 3; i++ {
		if b.Allow(u) {
			t.Fatalf("request %d admitted during the doubled cooldown", i)
		}
	}
	if !b.Allow(u) {
		t.Fatal("no probe after the doubled cooldown")
	}
	b.Observe(u, true)
	// MaxCooldown caps at 4: again three fast-fails, then a probe.
	for i := 0; i < 3; i++ {
		if b.Allow(u) {
			t.Fatalf("request %d admitted during the capped cooldown", i)
		}
	}
	if !b.Allow(u) {
		t.Fatal("no probe after the capped cooldown")
	}
	if st := b.Stats(); st.BreakerTrips != 3 {
		t.Errorf("trips = %d, want 3 (initial + two failed probes)", st.BreakerTrips)
	}
}

// TestRegistryFaultStorm: concurrent tenants hammering one Registry while a
// breaker trips and recovers must never deadlock, and politeness spacing
// must still hold for the recovered host afterwards. Run under -race in CI.
func TestRegistryFaultStorm(t *testing.T) {
	reg := NewRegistry()
	reg.SetFloor(time.Millisecond)
	b := NewBreaker(BreakerPolicy{FailureThreshold: 3, Cooldown: 4})
	hosts := []string{
		"https://a.org/x", "https://b.org/x", "https://dead.org/x", "https://c.org/x",
	}
	const tenants = 8
	const perTenant = 40
	var wg sync.WaitGroup
	for tenant := 0; tenant < tenants; tenant++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				u := hosts[(tenant+i)%len(hosts)]
				if !b.Allow(u) {
					continue // fast-fail: no politeness window consumed
				}
				if err := reg.WaitContext(nil, hostKey(u), time.Millisecond); err != nil {
					t.Errorf("tenant %d: %v", tenant, err)
					return
				}
				// dead.org fails every request until half the storm is done,
				// then recovers — the breaker trips, probes, and closes while
				// other tenants keep crawling the healthy hosts.
				failed := u == "https://dead.org/x" && i < perTenant/2
				b.Observe(u, failed)
			}
		}(tenant)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fault storm deadlocked: tenants never drained")
	}
	if reg.HostCount() == 0 {
		t.Fatal("registry accounted no hosts")
	}
	// After the storm the recovered host's politeness window still works:
	// two grants spaced by the registry, deterministic arithmetic intact.
	start := time.Now()
	const spacing = 10 * time.Millisecond
	if err := reg.WaitContext(nil, "dead.org", spacing); err != nil {
		t.Fatal(err)
	}
	if err := reg.WaitContext(nil, "dead.org", spacing); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < spacing {
		t.Errorf("post-recovery grants %v apart, want >= %v: the storm corrupted the host window", elapsed, spacing)
	}
	for _, u := range reg.Usage() {
		if u.Grants == 0 {
			t.Errorf("host %s recorded zero grants", u.Host)
		}
	}
}
