package sbcrawl

// The crawl invariant: the paper's crawler is one sequential loop, and every
// accelerator this package adds (prefetch, latency, faults with
// retries, kill and resume, a warm or damaged store, body lending, fleets
// sharing speculation) must return that loop's Result byte for byte.
// FuzzCrawlConfig draws a configuration and asserts outcome(got) ==
// outcome(baseline), the plain sequential, store-less, fault-free crawl of
// the same site, strategy, seed and budget, plus each axis's diagnostics. Its
// seed corpus is the fixed table `go test` runs; `go test -fuzz` explores the
// rest and minimizes a failing input.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sbcrawl/internal/core"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/fleet"
	"sbcrawl/internal/metrics"
)

// outcome returns a copy of res without its diagnostics (Store, Faults):
// the part of a Result no accelerator may change.
func outcome(res *Result) *Result {
	out := *res
	out.Store, out.Faults = nil, nil
	return &out
}

// invariantSites are the sites a draw crawls, each built once: cn, cl, the
// four-host federation (always budgeted: exhausted, it is 20,065 requests)
// and a two-host federation small enough to exhaust.
var invariantSites = map[byte]func() (*Site, error){
	'n': sync.OnceValues(func() (*Site, error) { return GenerateSite("cn", 0.01, 5) }),
	'l': sync.OnceValues(func() (*Site, error) { return GenerateSite("cl", 0.01, 3) }),
	'f': sync.OnceValues(func() (*Site, error) { return GenerateFederation([]string{"ce", "ab", "ju", "is"}, 0.005, 7) }),
	'x': sync.OnceValues(func() (*Site, error) { return GenerateFederation([]string{"cl", "cn"}, 0.005, 5) }),
}

// invariantBaselines memoizes the plain crawls, keyed by site, strategy,
// seed and budget.
var invariantBaselines sync.Map

// killPoints are the requests a kill lands on; -1 is the shortest crawl's
// last request but one.
var killPoints = []int{1, 7, 13, -1}

// How a persistent store takes part in a draw.
const (
	storeNone   = iota
	storeKill   // a budget of k into a fresh store, then Resume with the full budget
	storeCancel // cancelled at exactly request k, then Resume
	storeTwice  // killed at k, re-run to a later kill at another Prefetch, then Resume
	storeCrash  // killed at k, the newest segment cut where a crash can cut it, then Resume
	storeWarm   // crawled, then crawled again over the warm store
	storeDone   // crawled, then again with Resume: served from the done-record
	storeLend   // a warm store, the replay's Recycler visible and hidden (CrawlSite only)
	storeShared // two concurrent crawls through one OpenStore handle (CrawlSite only)
	storeModes
)

// A draw is one point of the configuration space, in the fuzz arguments'
// types.
type draw struct {
	Sites     string // the entries, one invariantSites key each
	Strategy  Strategy
	Seed      int64
	Budget    uint16
	Prefetch  int8 // PrefetchAuto or a width up to 16
	LatencyUS uint16
	FaultPct  uint8 // Config.FaultRate in percent, retries on
	FaultSeed int64
	Store     uint8
	Kill      uint8 // index into killPoints
	Cut       uint8 // storeCrash: the record (Cut/5, from the end) and byte class (Cut%5) cut at
	Workers   uint8 // 0: CrawlSite of Sites[0]; n: CrawlSites with n workers
	Shared    bool  // FleetOptions.SharedSpeculation
	CacheCap  uint8 // FleetOptions.SpecCacheCap
}

// normalized maps any fuzz input onto a valid draw; it is the identity on
// the seed corpus.
func (d draw) normalized() draw {
	if !slices.Contains(allStrategies, d.Strategy) {
		d.Strategy = allStrategies[len(d.Strategy)%len(allStrategies)]
	}
	d.Prefetch = max(PrefetchAuto, d.Prefetch%17)
	d.LatencyUS %= 2001
	d.FaultPct %= 21
	d.Store %= storeModes
	d.Kill %= uint8(len(killPoints))
	d.Workers %= 5
	keys := []byte(d.Sites + "n")[:max(1, min(len(d.Sites), 4))]
	for i, c := range keys {
		if invariantSites[c] == nil {
			keys[i] = "nlfx"[c%4]
		}
	}
	if d.Workers == 0 {
		keys, d.Shared, d.CacheCap = keys[:1], false, 0
	} else if d.Store == storeLend || d.Store == storeShared {
		d.Store = storeWarm
	}
	d.Sites = string(keys)
	if strings.Contains(d.Sites, "f") && (d.Budget == 0 || d.Budget > 300) {
		d.Budget = 150
	}
	if d.Store != storeNone && d.Budget == 1 {
		d.Budget = 2 // a kill needs a request before the last
	}
	if d.FaultPct > 0 {
		// One fault plan for every entry of a fleet (FaultSeed 0 derives
		// one per entry from its seed), so a response one entry fetched
		// through the retries is one the others would have had to retry.
		d.FaultSeed |= 1
	}
	return d
}

// invariantCase is a normalized draw, ready to crawl.
type invariantCase struct {
	draw
	cfg     Config        // before a store is wired in
	opts    *FleetOptions // nil: CrawlSite of entries[0]
	entries []*Site
	want    []*Result // per entry, the plain sequential crawl
	n, k    int       // the shortest baseline's requests; the kill point
}

func newInvariantCase(t *testing.T, d draw) *invariantCase {
	c := &invariantCase{draw: d, cfg: Config{
		Strategy: d.Strategy, Seed: d.Seed, MaxRequests: int(d.Budget), Prefetch: int(d.Prefetch),
		SimLatency: time.Duration(d.LatencyUS) * time.Microsecond,
	}}
	if d.FaultPct > 0 {
		c.cfg.FaultRate, c.cfg.FaultSeed = float64(d.FaultPct)/100, d.FaultSeed
	}
	if d.Workers > 0 {
		c.opts = &FleetOptions{Workers: int(d.Workers), SharedSpeculation: d.Shared, SpecCacheCap: int(d.CacheCap)}
	}
	for i := range d.Sites {
		site, err := invariantSites[d.Sites[i]]()
		if err != nil {
			t.Fatal(err)
		}
		plain := Config{Strategy: d.Strategy, Seed: d.Seed, MaxRequests: int(d.Budget)}
		if c.opts != nil {
			plain.Seed = fleet.DeriveSeed(d.Seed, i) // the seed CrawlSites gives entry i
		}
		key := fmt.Sprint(d.Sites[i], plain.Strategy, plain.Seed, plain.MaxRequests)
		want, ok := invariantBaselines.Load(key)
		if !ok {
			res, err := CrawlSite(site, plain)
			if err != nil {
				t.Fatal(err)
			}
			want, _ = invariantBaselines.LoadOrStore(key, res)
		}
		c.entries, c.want = append(c.entries, site), append(c.want, want.(*Result))
		if i == 0 || c.want[i].Requests < c.n {
			c.n = c.want[i].Requests
		}
	}
	// A kill lands before the shortest crawl would end on its own.
	if c.k = killPoints[d.Kill]; c.k < 0 || c.k >= c.n {
		c.k = max(c.n-1, 1)
	}
	return c
}

func FuzzCrawlConfig(f *testing.F) {
	for _, d := range invariantCorpus() {
		f.Add(d.Sites, string(d.Strategy), d.Seed, d.Budget, d.Prefetch, d.LatencyUS,
			d.FaultPct, d.FaultSeed, d.Store, d.Kill, d.Cut, d.Workers, d.Shared, d.CacheCap)
	}
	f.Fuzz(func(t *testing.T, sites, strategy string, seed int64, budget uint16, prefetch int8,
		latencyUS uint16, faultPct uint8, faultSeed int64, store, kill, cut, workers uint8, shared bool, cacheCap uint8) {
		checkDraw(t, draw{sites, Strategy(strategy), seed, budget, prefetch, latencyUS,
			faultPct, faultSeed, store, kill, cut, workers, shared, cacheCap}.normalized())
	})
}

// checkDraw crawls a normalized draw and checks it, printing the
// configuration as Go literals when it fails.
func checkDraw(t *testing.T, d draw) {
	c := newInvariantCase(t, d)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("draw %+v, kill at request %d\n\tcfg := %#v\n\topts := %#v", d, c.k, c.cfg, c.opts)
		}
	})
	c.run(t)
}

// The equivalence families below run their rows of the fixed table under
// the names that first checked them, one subtest per strategy; the fuzz
// seed corpus holds the other rows.

// TestPrefetchEquivalence: every prefetch width, unbudgeted on cn and under
// a 40-request budget on cl, where speculation must not spend budget the
// engine did not charge.
func TestPrefetchEquivalence(t *testing.T) {
	perStrategy(t, allStrategies, func(s Strategy) []draw {
		return widths(draw{Sites: "n", Strategy: s, Seed: 2}, 4, 16, PrefetchAuto)
	})
	t.Run("budgeted", func(t *testing.T) {
		var rows []draw
		for _, s := range allStrategies {
			rows = append(rows, widths(draw{Sites: "l", Strategy: s, Seed: 7, Budget: 40}, 4, 16, PrefetchAuto)...)
		}
		runDraws(t, rows)
	})
}

// TestFabricEquivalence: the four-host federation, sequential, at fixed
// widths up to the 32 in flight that four partitions of 8 once made, and
// adaptive.
func TestFabricEquivalence(t *testing.T) {
	perStrategy(t, allStrategies, func(s Strategy) []draw {
		return widths(draw{Sites: "f", Strategy: s, Seed: 3, Budget: 150}, 0, 4, 8, 16, 32, PrefetchAuto)
	})
}

// TestResumeEquivalence: killed at request 13, then resumed, at three
// prefetch widths.
func TestResumeEquivalence(t *testing.T) {
	perStrategy(t, allStrategies, func(s Strategy) []draw {
		return widths(draw{Sites: "n", Strategy: s, Seed: 2, Store: storeKill, Kill: 2}, 0, 8, PrefetchAuto)
	})
}

// TestRetryConvergence: 10 % of requests fail until retried, on cn and on
// the federation, speculating at a fixed and the adaptive width and
// sequential.
func TestRetryConvergence(t *testing.T) {
	perStrategy(t, allStrategies, func(s Strategy) []draw {
		return append([]draw{{Sites: "n", Strategy: s, Seed: 2, FaultPct: 10, FaultSeed: 99}},
			widths(draw{Sites: "f", Strategy: s, Seed: 3, Budget: 150, FaultPct: 10, FaultSeed: 99}, 8, PrefetchAuto, 0)...)
	})
}

var killResumeStrategies = []Strategy{StrategyBFS, StrategySB, StrategyRandom}

// TestFabricResumeEquivalence: a speculating federation crawl killed at
// request 13, then resumed.
func TestFabricResumeEquivalence(t *testing.T) {
	perStrategy(t, killResumeStrategies, func(s Strategy) []draw {
		return []draw{{Sites: "f", Strategy: s, Seed: 2, Budget: 120, Prefetch: PrefetchAuto, Store: storeKill, Kill: 2}}
	})
}

// TestFaultResumeEquivalence: a faulted crawl killed at request 13, then
// resumed.
func TestFaultResumeEquivalence(t *testing.T) {
	perStrategy(t, killResumeStrategies, func(s Strategy) []draw {
		return []draw{{Sites: "n", Strategy: s, Seed: 2, FaultPct: 10, FaultSeed: 99, Store: storeKill, Kill: 2}}
	})
}

// perStrategy runs each strategy's rows in a subtest named after it.
func perStrategy(t *testing.T, strategies []Strategy, rows func(Strategy) []draw) {
	for _, s := range strategies {
		t.Run(string(s), func(t *testing.T) { runDraws(t, rows(s)) })
	}
}

// runDraws checks each row in a numbered subtest.
func runDraws(t *testing.T, rows []draw) {
	for i, d := range rows {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkDraw(t, d.normalized()) })
	}
}

// widths is d at each prefetch width.
func widths(d draw, ws ...int8) []draw {
	rows := make([]draw, len(ws))
	for i, w := range ws {
		d.Prefetch = w
		rows[i] = d
	}
	return rows
}

// run crawls the draw's legs and checks the last against the baselines.
func (c *invariantCase) run(t *testing.T) {
	durable := c.cfg
	durable.StorePath = t.TempDir()
	final := durable
	final.Resume = true
	var first *FleetResult
	switch c.Store {
	case storeNone:
		final = c.cfg
	case storeKill, storeTwice, storeCrash:
		kill := durable
		kill.MaxRequests = c.k
		first = c.crawl(t, kill, nil)
		if c.Store == storeTwice {
			kill.MaxRequests = min(c.k+max(1, (c.n-c.k)/2), c.n-1)
			kill.Prefetch = otherWidth(c.cfg.Prefetch)
			c.crawl(t, kill, nil)
		}
		if c.Store == storeCrash {
			cutSegment(t, durable.StorePath, c.Cut)
		}
	case storeCancel:
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		kill := durable
		kill.CheckpointEvery = 1
		kill.Progress = func(p CrawlProgress) {
			if p.Requests == c.k {
				cancel()
			}
		}
		first = c.crawl(t, kill, ctx)
		// It charged exactly k requests, its fleet siblings no more. (A
		// done-record it left would serve the resume, which is rejected
		// below.)
		most := 0
		for _, s := range first.Sites {
			if s.Result != nil {
				most = max(most, s.Result.Requests)
			}
		}
		if most != c.k {
			t.Errorf("the cancelled crawl charged up to %d requests, want %d", most, c.k)
		}
	case storeWarm, storeDone:
		first = c.crawl(t, durable, nil)
		final.Resume = c.Store == storeDone
	case storeLend:
		c.lend(t, durable.StorePath)
		return
	case storeShared:
		c.concurrent(t, durable.StorePath)
		return
	}
	last := c.crawl(t, final, nil)
	if first == nil {
		first = last
	}
	c.checkFired(t, first)
	switch st := last.Store; {
	case c.Store == storeDone:
		if st == nil || !st.Completed {
			t.Errorf("a finished crawl re-run with Resume was not served from its done-record: %+v", st)
		}
	case c.Store == storeNone || c.Store == storeCrash: // a cut may lose all k responses
	case st == nil || !st.Resumed || st.ReplayHits == 0 || st.Completed:
		t.Errorf("the crawl did not start warm over the store its earlier legs wrote, or another budget's done-record served it: %+v", st)
	case c.Store == storeWarm && c.opts != nil && c.Budget == 0 && st.ReplayMisses != 0:
		// A first fleet crawled to exhaustion stored every URL the second
		// can ask for; under a budget, what the window speculated on
		// depends on timing.
		t.Errorf("the warm fleet went to the site %d times", st.ReplayMisses)
	}
	c.check(t, last)
}

// crawl runs one leg under cfg (a CrawlSite leg as a fleet of one); a
// non-nil ctx may cancel it.
func (c *invariantCase) crawl(t *testing.T, cfg Config, ctx context.Context) *FleetResult {
	t.Helper()
	if c.opts == nil {
		res, err := CrawlSiteCtx(ctx, c.entries[0], cfg)
		if err != nil {
			t.Fatal(err)
		}
		return solo(res)
	}
	opts := *c.opts
	opts.Ctx = ctx
	fr, err := CrawlSites(c.entries, cfg, opts)
	if err != nil && (ctx == nil || !errors.Is(err, context.Canceled)) {
		t.Fatal(err)
	}
	return fr
}

// solo reports CrawlSite results as one leg: their store stats (the
// first's) and their faults summed.
func solo(res ...*Result) *FleetResult {
	fr := &FleetResult{Store: res[0].Store, Faults: &FaultStats{}}
	for _, r := range res {
		fr.Sites = append(fr.Sites, SiteOutcome{Result: r})
		if r.Faults != nil {
			fr.Faults.Add(*r.Faults)
		}
	}
	return fr
}

func otherWidth(w int) int {
	if w == 0 {
		return PrefetchAuto
	}
	return 0
}

// lend crawls over a warm store twice: with the replay database's Recycler
// visible to the engine (counting the bodies handed back) and hidden behind
// a wrapper, as any wrapping fetcher hides it.
func (c *invariantCase) lend(t *testing.T, dir string) {
	st := openInvariantStore(t, dir)
	warm := c.cfg
	warm.Store = st
	c.checkFired(t, c.crawl(t, warm, nil))
	counter := &countRecycles{}
	for _, wrap := range []func(fetch.Fetcher) fetch.Fetcher{
		func(f fetch.Fetcher) fetch.Fetcher { counter.Fetcher = f; return counter },
		func(f fetch.Fetcher) fetch.Fetcher { return struct{ fetch.Fetcher }{f} },
	} {
		site := c.entries[0]
		env := siteCrawlEnv(site, c.cfg, nil)
		st.attach(env, c.cfg, simNamespace(site))
		env.Fetcher = wrap(env.Fetcher)
		res, _, err := execCrawl(c.cfg, env, site.PageCount())
		if err != nil {
			t.Fatal(err)
		}
		c.check(t, solo(convertResult(res)))
	}
	// Only the sequential engine hands bodies back: the speculation window
	// keeps the responses it holds.
	if sequential := c.Prefetch == 0; (counter.n > 0) != sequential {
		t.Errorf("%d replayed bodies handed back; want some iff the crawl is sequential (%v)", counter.n, sequential)
	}
}

// countRecycles forwards Recycle to the wrapped replay database and counts
// the non-empty bodies handed back.
type countRecycles struct {
	fetch.Fetcher
	n int
}

func (c *countRecycles) Recycle(body []byte) {
	if len(body) > 0 {
		c.n++
	}
	c.Fetcher.(fetch.Recycler).Recycle(body)
}

// concurrent runs two crawls of one replay namespace at once through one
// OpenStore handle, at different Prefetch.
func (c *invariantCase) concurrent(t *testing.T, dir string) {
	st := openInvariantStore(t, dir)
	res, errs := make([]*Result, 2), make([]error, 2)
	var wg sync.WaitGroup
	for i, w := range []int{c.cfg.Prefetch, otherWidth(c.cfg.Prefetch)} {
		cfg := c.cfg
		cfg.Store, cfg.Prefetch = st, w
		wg.Add(1)
		go func() { defer wg.Done(); res[i], errs[i] = CrawlSite(c.entries[0], cfg) }()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	// The two serve each other through the store: a fault either retried
	// counts for both.
	c.checkFired(t, solo(res...))
	c.check(t, solo(res[0]))
	c.check(t, solo(res[1]))
}

func openInvariantStore(t *testing.T, dir string) *Store {
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// check is the invariant on a last leg, plus the diagnostics its
// accelerators must show.
func (c *invariantCase) check(t *testing.T, l *FleetResult) {
	t.Helper()
	for i, s := range l.Sites {
		res, want := s.Result, c.want[i]
		if res == nil {
			t.Fatalf("entry %d: no result: %v", i, s.Err)
		}
		if !reflect.DeepEqual(outcome(res), want) {
			t.Errorf("entry %d diverged from the sequential crawl: req=%d targets=%d curve=%d, want req=%d targets=%d curve=%d",
				i, res.Requests, len(res.Targets), len(res.Curve), want.Requests, len(want.Targets), len(want.Curve))
		}
		if res.Fabric != nil {
			t.Errorf("entry %d: reported fabric stats %+v, want none", i, res.Fabric)
		}
		if res.Faults != nil && res.Faults.FailedRequests != 0 {
			t.Errorf("entry %d: faults leaked past the retries: %+v", i, res.Faults)
		}
	}
	if c.opts == nil {
		return
	}
	got := *l
	got.Sites, got.Speculation, got.Store, got.Faults = nil, SpeculationStats{}, nil, nil
	if want := c.wantFleet(); !reflect.DeepEqual(got, want) {
		t.Errorf("fleet totals or merged curve diverged from the sequential crawls': req=%d curve=%d, want req=%d curve=%d",
			got.Requests, len(got.Curve), want.Requests, len(want.Curve))
	}
	// With one worker, a site's second crawl starts once its first has
	// published to the shared cache (its root GET at the least).
	repeats := slices.ContainsFunc([]byte(c.Sites), func(b byte) bool { return strings.Count(c.Sites, string(b)) > 1 })
	if c.Workers == 1 && c.Shared && c.CacheCap == 0 && c.Prefetch != 0 && repeats && l.Store == nil {
		if sp := l.Speculation; sp.Launched == 0 || sp.SharedHits == 0 {
			t.Errorf("shared speculation not surfaced: %+v", sp)
		}
	}
}

// wantFleet is the FleetResult outcome the baselines add up to: totals
// summed, curves merged as the fleet merges its traces. No crawl here takes
// over 500 requests, so a baseline's Curve is its trace, point for point.
func (c *invariantCase) wantFleet() FleetResult {
	w := FleetResult{Completed: len(c.want)}
	var traces []*core.Trace
	for _, r := range c.want {
		w.Targets, w.Requests = w.Targets+len(r.Targets), w.Requests+r.Requests
		w.TargetBytes, w.NonTargetBytes = w.TargetBytes+r.TargetBytes, w.NonTargetBytes+r.NonTargetBytes
		tr := &core.Trace{}
		for _, p := range r.Curve {
			tr.Record(p.Targets, p.TargetBytes, p.NonTargetBytes)
		}
		traces = append(traces, tr)
	}
	w.Curve = metrics.Curve(metrics.MergeTraces(traces), 500)
	return w
}

// checkFired: when the fault plan fails the first GET of a target a leg on
// a fresh store fetched, the leg retried, so no fault draw goes unexercised.
func (c *invariantCase) checkFired(t *testing.T, l *FleetResult) {
	if c.FaultPct == 0 || l.Faults != nil && l.Faults.Retries > 0 {
		return
	}
	plan := faultPlan(c.cfg) // FaultSeed is set, so every entry has this plan
	for i, s := range l.Sites {
		if s.Result == nil {
			continue
		}
		for _, u := range s.Result.Targets {
			if _, ok := plan.Next("GET", u); ok {
				t.Fatalf("the fault plan fails %s, a target entry %d fetched, yet nothing was retried", u, i)
			}
		}
	}
}

// cutSegment cuts the kill leg's segment where a crash mid-append can: in
// record cut/5 counted from its end, at byte class cut%5 — the record's
// first byte, its length header, its CRC, its key (a batch's payload) or
// its value. The leg's Close must not have compacted: a snapshot segment
// whose predecessors are gone was fsynced whole, so no crash cuts it.
func cutSegment(t *testing.T, dir string, cut uint8) {
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 || filepath.Base(segs[0]) != "00000001.seg" {
		t.Fatalf("the kill leg left segments %v: its Close compacted the store", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	type record struct{ off, klen, vlen int }
	var recs []record
	for off := 0; off+12 <= len(data); {
		r := record{off, int(binary.LittleEndian.Uint32(data[off:])), int(binary.LittleEndian.Uint32(data[off+4:]))}
		recs = append(recs, r)
		off += 12 + r.klen + r.vlen
	}
	if len(recs) == 0 {
		t.Fatal("the kill leg wrote no record")
	}
	r := recs[len(recs)-1-int(cut/5)%len(recs)]
	at := r.off + []int{0, 4, 10, 12 + r.klen/2, 12 + r.klen + r.vlen/2}[cut%5]
	if err := os.Truncate(segs[0], int64(at)); err != nil {
		t.Fatal(err)
	}
}

// invariantCorpus is the fuzz seed corpus: with the equivalence families
// above, the fixed table of every combination the hand-written equivalence
// tests checked, and crossings none of them made.
func invariantCorpus() []draw {
	var rows []draw
	for _, s := range allStrategies {
		rows = append(rows,
			draw{Sites: "n", Strategy: s, Seed: 2, Store: storeLend},
			draw{Sites: "n", Strategy: s, Seed: 2, Prefetch: 8, Store: storeLend},
			draw{Sites: "ll", Strategy: s, Seed: 2, Budget: 40, Prefetch: 8, Workers: 2, Shared: true})
	}
	for _, w := range []int8{8, PrefetchAuto} {
		rows = append(rows,
			draw{Sites: "l", Strategy: StrategySB, Seed: 3, Budget: 60, LatencyUS: 1000, Prefetch: w},
			draw{Sites: "lnxf", Strategy: StrategySB, Seed: 1, Budget: 50, Prefetch: w, Workers: 4},
			draw{Sites: "lnll", Strategy: StrategySB, Seed: 9, Budget: 60, LatencyUS: 1000, Prefetch: w, Workers: 4, Shared: true})
	}
	for kill := range uint8(len(killPoints)) { // a fleet cancelled at each kill point
		rows = append(rows, draw{Sites: "ll", Strategy: StrategySB, Seed: 7, Prefetch: 8, LatencyUS: 200, Store: storeCancel, Kill: kill, Workers: 2})
	}
	return append(rows,
		draw{Sites: "ll", Strategy: StrategySB, Seed: 9, Budget: 60, LatencyUS: 1000, Prefetch: 8, Workers: 1, Shared: true},
		draw{Sites: "x", Strategy: StrategyBFS, LatencyUS: 2000, Prefetch: PrefetchAuto},
		// A crash cut at each byte class: the newest record's value, an older
		// record's CRC, key, length header and first byte.
		draw{Sites: "n", Strategy: StrategySB, Seed: 3, Store: storeCrash, Kill: 2, Cut: 4},
		draw{Sites: "l", Strategy: StrategyBFS, Seed: 7, Prefetch: 8, Store: storeCrash, Kill: 1, Cut: 5 + 2},
		draw{Sites: "n", Strategy: StrategyTPOff, Seed: 2, Prefetch: PrefetchAuto, Store: storeCrash, Kill: 3, Cut: 5*3 + 3},
		draw{Sites: "ll", Strategy: StrategySB, Seed: 7, Prefetch: 8, Store: storeCrash, Kill: 2, Cut: 5*9 + 1, Workers: 2},
		draw{Sites: "n", Strategy: StrategyRandom, Seed: 5, FaultPct: 10, FaultSeed: 99, Store: storeCrash, Kill: 1, Cut: 5 * 50},
		draw{Sites: "nn", Strategy: StrategySB, Seed: 4, Prefetch: 8, Store: storeWarm, Workers: 2, Shared: true, CacheCap: 12},
		draw{Sites: "lnx", Strategy: StrategySB, Seed: 5, Store: storeDone, Workers: 2},
		draw{Sites: "ff", Strategy: StrategyBFS, Budget: 100, LatencyUS: 2000, Prefetch: PrefetchAuto, Workers: 2},
		// Crossings no hand-written test made: faults × speculation × kill
		// and resume; a resume resumed again at another width; lending under
		// speculation; one namespace crawled twice at once; a shared
		// speculation cache under faults.
		draw{Sites: "f", Strategy: StrategySB, Seed: 3, Budget: 150, Prefetch: PrefetchAuto, FaultPct: 10, FaultSeed: 99, Store: storeKill, Kill: 1},
		draw{Sites: "f", Strategy: StrategyBFS, Seed: 3, Budget: 150, Prefetch: PrefetchAuto, FaultPct: 5, FaultSeed: 7, Store: storeCancel, Kill: 3},
		draw{Sites: "n", Strategy: StrategySB, Seed: 2, Prefetch: PrefetchAuto, Store: storeTwice, Kill: 1},
		draw{Sites: "l", Strategy: StrategyBFS, Seed: 7, Store: storeTwice, Kill: 3},
		draw{Sites: "n", Strategy: StrategySB, Seed: 2, Prefetch: PrefetchAuto, Store: storeLend},
		draw{Sites: "n", Strategy: StrategyTPOff, Seed: 2, Prefetch: PrefetchAuto, FaultPct: 10, FaultSeed: 99, Store: storeLend},
		draw{Sites: "n", Strategy: StrategySB, Seed: 2, Prefetch: 8, Store: storeShared},
		draw{Sites: "l", Strategy: StrategyBFS, Seed: 7, Prefetch: PrefetchAuto, FaultPct: 10, FaultSeed: 99, Store: storeShared},
		draw{Sites: "ll", Strategy: StrategySB, Seed: 2, Budget: 40, Prefetch: 8, FaultPct: 10, FaultSeed: 99, Workers: 2, Shared: true},
	)
}
