package sbcrawl_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"
	"time"

	"sbcrawl"
	"sbcrawl/internal/serve"
)

// steadyCycles is how many times TestSteadyState runs its mix.
const steadyCycles = 4

// steadyLiveTolerance bounds how far the live heap at the end of a cycle may
// drift from the second cycle's. Measured on 2 cores, eight runs of six
// cycles: from the third cycle on it sits 0 to +277 KB above the second
// cycle's (three runs under -race: up to +218 KB) while the free lists fill
// to the concurrency the mix happens to reach — parked parsers' intern
// tables, action tables, node slabs and engine tables, each under its
// maxParked bounds — and then stays within ±30 KB. What the check is for
// grows with every crawl: a cache or a registry that keeps something of
// each crawl, session or connection.
const steadyLiveTolerance = 512 << 10

// steadyStackSlack is how far the stack memory after a crawl may be above
// its level before the crawl, per P: what the runtime may keep of the
// crawl's exited goroutines for the next go statement, up to 64 a P, each
// with its 8 KB starting stack (16 KB under -race); it frees the rest at a
// GC. Measured on 2 cores over every crawl of the mix: −96 KB to +96 KB,
// and up to +608 KB under -race after the BFS crawl, whose speculation
// window runs the most goroutines at once.
const steadyStackSlack = 64 * 8 << 10

// steadyStep is one crawl of the mix: kind names it, and run returns what
// the crawl returned (a *Result, a *FleetResult or a crawld session's unit
// results).
type steadyStep struct {
	kind string
	run  func(t *testing.T) any
}

// returned is a crawl's return value and the digest of its JSON at return.
type returned struct {
	kind  string
	cycle int
	v     any
	sum   [sha256.Size]byte
}

// TestSteadyState: a crawl after any history of crawls in the same process
// returns what it returned the first time, and leaves memory and goroutines
// where they were. The sites are generated once, and one fixed mix runs
// steadyCycles times: SB sequential on a federation (budgeted) and windowed
// under latency, TP-OFF and FOCUSED budgeted, BFS windowed to exhaustion on a
// site whose T ∪ F is past the engine's parking bound, a fleet sharing
// speculation, a durable crawl cancelled mid-way then resumed then served from
// its done-record, live crawls of an HTTP host through CrawlMany, and a
// crawld session (simulated sites and a live root) on a daemon started and
// shut down in the cycle. After every crawl and a GC: its outcome (diagnostic
// counters excluded, as FuzzCrawlConfig compares) is the first cycle's of its
// kind; every value returned in this cycle and the last is unchanged, so
// nothing a Result holds was parked and reused; the goroutine count is back
// at its level before the crawl, and the stack memory within
// steadyStackSlack of it. From the second cycle on, the live heap at the end
// of a cycle is within steadyLiveTolerance of the second cycle's.
func TestSteadyState(t *testing.T) {
	gen := func(code string, scale float64, seed int64) *sbcrawl.Site {
		site, err := sbcrawl.GenerateSite(code, scale, seed)
		if err != nil {
			t.Fatal(err)
		}
		return site
	}
	cl, cn, il := gen("cl", 0.01, 3), gen("cn", 0.01, 5), gen("il", 0.005, 1)
	// An action index large enough that its level draws change its answers.
	fed, err := sbcrawl.GenerateFederation([]string{"ce", "ab", "ju", "is"}, 0.005, 7)
	if err != nil {
		t.Fatal(err)
	}
	host := httptest.NewServer(cl.Handler())
	defer host.Close()

	crawl := func(t *testing.T, site *sbcrawl.Site, cfg sbcrawl.Config) any {
		res, err := sbcrawl.CrawlSite(site, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sb := sbcrawl.Config{Strategy: sbcrawl.StrategySB, Seed: 7, MaxRequests: 3000}
	windowed := sbcrawl.Config{Strategy: sbcrawl.StrategySB, Seed: 7}
	windowed.Prefetch, windowed.SimLatency = sbcrawl.PrefetchAuto, 50*time.Microsecond
	var store string // the durable crawl's directory, new each cycle
	durable := sbcrawl.Config{Strategy: sbcrawl.StrategySB, Seed: 4, CheckpointEvery: 1}
	steps := []steadyStep{
		{"sb", func(t *testing.T) any { return crawl(t, fed, sb) }},
		{"sb-windowed", func(t *testing.T) any { return crawl(t, cl, windowed) }},
		{"tpoff", func(t *testing.T) any {
			return crawl(t, cn, sbcrawl.Config{Strategy: sbcrawl.StrategyTPOff, Seed: 2, MaxRequests: 60})
		}},
		{"focused", func(t *testing.T) any {
			return crawl(t, cl, sbcrawl.Config{Strategy: sbcrawl.StrategyFocused, Seed: 2, MaxRequests: 40})
		}},
		{"bfs-exhaust", func(t *testing.T) any {
			return crawl(t, il, sbcrawl.Config{Strategy: sbcrawl.StrategyBFS, Prefetch: sbcrawl.PrefetchAuto})
		}},
		{"fleet", func(t *testing.T) any {
			fr, err := sbcrawl.CrawlSites([]*sbcrawl.Site{cl, cn, cl}, sbcrawl.Config{Strategy: sbcrawl.StrategySB, Seed: 9, MaxRequests: 60, Prefetch: 8},
				sbcrawl.FleetOptions{Workers: 2, SharedSpeculation: true})
			if err != nil {
				t.Fatal(err)
			}
			return fr
		}},
		{"durable-cancelled", func(t *testing.T) any {
			store = t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := durable
			cfg.StorePath = store
			cfg.Progress = func(p sbcrawl.CrawlProgress) {
				if p.Requests == 30 {
					cancel()
				}
			}
			res, err := sbcrawl.CrawlSiteCtx(ctx, cn, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != 30 {
				t.Errorf("the crawl cancelled at request 30 charged %d", res.Requests)
			}
			return res
		}},
		{"durable-resumed", func(t *testing.T) any {
			cfg := durable
			cfg.StorePath, cfg.Resume = store, true
			res := crawl(t, cn, cfg).(*sbcrawl.Result)
			if res.Store == nil || !res.Store.Resumed || res.Store.Completed {
				t.Errorf("the crawl did not resume over the cancelled one's store: %+v", res.Store)
			}
			return res
		}},
		{"durable-done", func(t *testing.T) any {
			cfg := durable
			cfg.StorePath, cfg.Resume = store, true
			res := crawl(t, cn, cfg).(*sbcrawl.Result)
			if res.Store == nil || !res.Store.Completed {
				t.Errorf("the finished crawl re-run with Resume was not served from its done-record: %+v", res.Store)
			}
			return res
		}},
		{"live-fleet", func(t *testing.T) any {
			cfg := sbcrawl.Config{Root: host.URL + "/", Strategy: sbcrawl.StrategyBFS, Prefetch: sbcrawl.PrefetchAuto, Politeness: time.Millisecond, MaxRequests: 40}
			fr, err := sbcrawl.CrawlMany([]sbcrawl.Config{cfg, cfg, cfg}, sbcrawl.FleetOptions{Workers: 2, SharedSpeculation: true})
			if err != nil || fr.Completed != 3 {
				t.Fatalf("live fleet: %v, %+v", err, fr)
			}
			return fr
		}},
		{"crawld", func(t *testing.T) any {
			srv, err := serve.New(serve.Config{StorePath: t.TempDir(), Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(srv.Handler())
			defer srv.Close()
			defer front.Close()
			client, ctx := serve.NewClient(front.URL), context.Background()
			created, err := client.Create(ctx, serve.SessionSpec{
				Tenant: "acme",
				Name:   "steady",
				Crawl:  serve.CrawlSpec{Strategy: "sb", Seed: 3, MaxRequests: 50, Prefetch: sbcrawl.PrefetchAuto, Politeness: time.Millisecond},
				Sites:  []serve.SiteSpec{{Code: "cl", Scale: 0.01, Seed: 1}, {Code: "cn", Scale: 0.01, Seed: 2}},
				Roots:  []string{host.URL + "/"},
			})
			if err != nil {
				t.Fatal(err)
			}
			done, err := client.WaitDone(ctx, created.ID)
			if err != nil || done.State != serve.StateDone {
				t.Fatalf("session = %+v, %v", done, err)
			}
			return done.Results
		}},
	}

	first := map[string][]byte{} // kind → its first outcome's JSON
	var earlier []returned       // this cycle's values and the last's
	var live2 uint64
	stackSlack := uint64(steadyStackSlack * runtime.GOMAXPROCS(0))
	if sbcrawl.RaceEnabled {
		stackSlack *= 2
	}
	for cycle := 1; cycle <= steadyCycles; cycle++ {
		// Every list a crawl parks on is taken from again within a cycle,
		// so a value parked under a Result is reused, and the Result
		// changed, before the next cycle ends.
		earlier = slices.DeleteFunc(earlier, func(r returned) bool { return r.cycle < cycle-1 })
		for _, step := range steps {
			goroutines, stacks := runtime.NumGoroutine(), readSteady().stacks
			v := step.run(t)
			if t.Failed() {
				t.FailNow()
			}
			runtime.GC()
			where := fmt.Sprintf("%s in cycle %d", step.kind, cycle)
			got := steadyJSON(t, steadyOutcome(v))
			if want, ok := first[step.kind]; !ok {
				first[step.kind] = got
			} else if string(got) != string(want) {
				t.Errorf("%s: outcome differs from the first cycle's:\n%s\nwant\n%s", where, got, want)
			}
			for _, r := range earlier {
				if sha256.Sum256(steadyJSON(t, r.v)) != r.sum {
					t.Errorf("after %s: the %s result of cycle %d has changed since it was returned", where, r.kind, r.cycle)
				}
			}
			earlier = append(earlier, returned{step.kind, cycle, v, sha256.Sum256(steadyJSON(t, v))})
			// The goroutines a crawl started end with it, some (connections
			// closing, a daemon's HTTP front) just after it returns.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d goroutines after the crawl, %d before", where, runtime.NumGoroutine(), goroutines)
				}
			}
			runtime.GC()
			if s := readSteady().stacks; s > stacks+stackSlack {
				t.Errorf("%s: stacks hold %d bytes after the crawl, %d before", where, s, stacks)
			}
		}
		// Two collections: the first moves sync.Pool contents to the victim
		// caches, the second drops them.
		runtime.GC()
		runtime.GC()
		live := readSteady().live
		t.Logf("cycle %d: live heap %d bytes", cycle, live)
		switch {
		case cycle == 2:
			live2 = live
		case cycle > 2 && (live > live2+steadyLiveTolerance || live+steadyLiveTolerance < live2):
			t.Errorf("cycle %d: live heap %d bytes, the second cycle's %d: more than %d apart", cycle, live, live2, steadyLiveTolerance)
		}
	}
}

// steadyOutcome strips what two runs of one crawl may differ in: the
// diagnostic store, fault and speculation counters.
func steadyOutcome(v any) any {
	strip := func(r *sbcrawl.Result) *sbcrawl.Result {
		if r == nil {
			return nil
		}
		out := *r
		out.Store, out.Faults = nil, nil
		return &out
	}
	switch v := v.(type) {
	case *sbcrawl.Result:
		return strip(v)
	case *sbcrawl.FleetResult:
		out := *v
		out.Speculation, out.Store, out.Faults = sbcrawl.SpeculationStats{}, nil, nil
		out.Sites = nil
		for _, s := range v.Sites {
			s.Result = strip(s.Result)
			out.Sites = append(out.Sites, s)
		}
		return &out
	case []serve.UnitResult:
		var out []serve.UnitResult
		for _, u := range v {
			u.Result = strip(u.Result)
			out = append(out, u)
		}
		return out
	}
	panic("steadyOutcome: unknown result type")
}

func steadyJSON(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// steadyMemory is the runtime's account of the memory TestSteadyState
// holds steady.
type steadyMemory struct{ live, stacks uint64 }

func readSteady() steadyMemory {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/memory/classes/heap/stacks:bytes"}}
	metrics.Read(s)
	return steadyMemory{live: s[0].Value.Uint64(), stacks: s[1].Value.Uint64()}
}
