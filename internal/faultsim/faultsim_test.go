package faultsim

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"testing"
)

func TestPlanDeterministicAcrossInstances(t *testing.T) {
	sched := Schedule{Seed: 7, Rate: 0.3}
	a, b := NewPlan(sched), NewPlan(sched)
	for i := 0; i < 500; i++ {
		u := fmt.Sprintf("https://example.test/page-%d", i)
		for attempt := 0; attempt < 4; attempt++ {
			fa, oka := a.Next("GET", u)
			fb, okb := b.Next("GET", u)
			if oka != okb || fa != fb {
				t.Fatalf("plans diverged at %s attempt %d: (%v,%v) vs (%v,%v)",
					u, attempt, fa, oka, fb, okb)
			}
		}
	}
}

func TestPlanFailsThenRecovers(t *testing.T) {
	p := NewPlan(Schedule{Seed: 3, Rate: 1})
	u := "https://example.test/a"
	fails := 0
	for attempt := 1; attempt <= 10; attempt++ {
		_, failed := p.Next("GET", u)
		if failed {
			if fails != attempt-1 {
				t.Fatalf("non-consecutive failure at attempt %d", attempt)
			}
			fails++
		}
	}
	if fails < 1 || fails > maxFailures {
		t.Fatalf("failure count %d outside [1,%d]", fails, maxFailures)
	}
	// Once recovered, the URL stays recovered.
	if _, failed := p.Next("GET", u); failed {
		t.Fatal("URL failed again after recovering")
	}
}

func TestPlanVerbsCountedIndependently(t *testing.T) {
	p := NewPlan(Schedule{Seed: 3, Rate: 1})
	u := "https://example.test/a"
	if _, failed := p.Next("GET", u); !failed {
		t.Fatal("first GET should fail at rate 1")
	}
	// The HEAD counter starts fresh: its first attempt fails too.
	if _, failed := p.Next("HEAD", u); !failed {
		t.Fatal("first HEAD should fail independently of the GET counter")
	}
}

func TestPlanRateZeroNeverInjects(t *testing.T) {
	p := NewPlan(Schedule{Seed: 1})
	if p.Active() {
		t.Fatal("rate-0 plan reports Active")
	}
	for i := 0; i < 100; i++ {
		if _, failed := p.Next("GET", fmt.Sprintf("https://x.test/%d", i)); failed {
			t.Fatal("rate-0 plan injected a fault")
		}
	}
}

func TestPlanRateRoughlyHolds(t *testing.T) {
	p := NewPlan(Schedule{Seed: 11, Rate: 0.25})
	faulty := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if _, failed := p.Next("GET", fmt.Sprintf("https://x.test/%d", i)); failed {
			faulty++
		}
	}
	frac := float64(faulty) / n
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("fault fraction %.3f too far from configured 0.25", frac)
	}
}

func TestPlanDeadHostAttemptIndependent(t *testing.T) {
	p := NewPlan(Schedule{Seed: 5, DeadHosts: []string{"s3.federation.test"}})
	u := "https://s3.federation.test/page"
	first, failed := p.Next("GET", u)
	if !failed {
		t.Fatal("dead-host request did not fail")
	}
	for i := 0; i < 20; i++ {
		f, ok := p.Next("GET", u)
		if !ok || f != first {
			t.Fatalf("dead-host fault changed across attempts: %v vs %v", f, first)
		}
	}
	// Live hosts on the same plan are untouched (rate is 0).
	if _, ok := p.Next("GET", "https://s1.federation.test/page"); ok {
		t.Fatal("live host failed on a dead-host-only plan")
	}
}

func TestPlanDeadHostMatchesWWWAndCase(t *testing.T) {
	p := NewPlan(Schedule{Seed: 5, DeadHosts: []string{"Example.test"}})
	if _, ok := p.Next("GET", "https://www.example.test/"); !ok {
		t.Fatal("www-prefixed URL of a dead host not matched")
	}
}

func TestKindErrorsWrapStdlib(t *testing.T) {
	if !errors.Is(KindConnReset.Err(), syscall.ECONNRESET) {
		t.Error("conn-reset does not wrap ECONNRESET")
	}
	if !errors.Is(KindTimeout.Err(), os.ErrDeadlineExceeded) {
		t.Error("timeout does not wrap ErrDeadlineExceeded")
	}
	if !errors.Is(KindTruncated.Err(), io.ErrUnexpectedEOF) {
		t.Error("truncated does not wrap ErrUnexpectedEOF")
	}
	if Kind503.Err() != nil || Kind429.Err() != nil {
		t.Error("status kinds must not surface transport errors")
	}
	if Kind503.Status() != 503 || Kind429.Status() != 429 {
		t.Error("status kinds report wrong statuses")
	}
}

func TestPlanConcurrentUse(t *testing.T) {
	p := NewPlan(Schedule{Seed: 9, Rate: 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Next("GET", fmt.Sprintf("https://x.test/%d", i))
			}
		}()
	}
	wg.Wait()
	// After 8×200 attempts, every faulty URL has recovered: one more
	// attempt per URL must succeed.
	for i := 0; i < 200; i++ {
		if _, failed := p.Next("GET", fmt.Sprintf("https://x.test/%d", i)); failed {
			t.Fatalf("url %d still failing after 8 attempts (maxFailures 2)", i)
		}
	}
}
