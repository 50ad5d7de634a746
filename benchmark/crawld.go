package main

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sbcrawl"
	"sbcrawl/internal/fleet"
	"sbcrawl/internal/serve"
	"sbcrawl/internal/store"
)

// crawldRunner is the crawld-sessions workload: an in-process daemon behind
// httptest, driven closed-loop by one client per core. Every pass starts a
// fresh daemon over a fresh store. burst: the clients create CrawldBurst
// sessions back to back (the backlog grows to nearly all of them) and then
// wait for the drain. interactive: each client runs create → WaitDone in a
// loop for CrawldInteractive sessions.
type crawldRunner struct {
	p     params
	seed  int64
	dir   string
	specs []serve.SiteSpec
	sites []*sbcrawl.Site
	refs  map[int]string // session index → reference fingerprint
	n     int
}

// tenantWeights cycles the fair-share weights 1/2/4 over the tenants.
var tenantWeights = []int{1, 2, 4}

func newCrawldRunner(p params, seed int64, dir string) (*crawldRunner, error) {
	r := &crawldRunner{p: p, seed: seed, dir: dir, refs: map[int]string{}}
	for i, spec := range p.CrawldSites {
		ss := serve.SiteSpec{Code: spec.Code, Scale: spec.Scale, Seed: siteSeed(i)}
		site, err := sbcrawl.GenerateSite(ss.Code, ss.Scale, ss.Seed)
		if err != nil {
			return nil, err
		}
		r.specs = append(r.specs, ss)
		r.sites = append(r.sites, site)
	}
	// Daemon start over an empty store is part of set-up.
	d, err := r.startDaemon(filepath.Join(dir, "setup"))
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	return r, os.RemoveAll(filepath.Join(dir, "setup"))
}

type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

func (r *crawldRunner) startDaemon(dir string) (*daemon, error) {
	srv, err := serve.New(serve.Config{StorePath: dir, Workers: r.p.CrawldWorkers})
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (d *daemon) stop() error {
	d.ts.Close()
	return d.srv.Close()
}

// spec is session i's request. Distinct crawl seeds make every session a
// real crawl: none short-circuits from a neighbour's done-record.
func (r *crawldRunner) spec(i int) serve.SessionSpec {
	tenant := i % r.p.CrawldTenants
	return serve.SessionSpec{
		Tenant: fmt.Sprintf("tenant-%d", tenant),
		Name:   fmt.Sprintf("s-%06d", i),
		Weight: tenantWeights[tenant%len(tenantWeights)],
		Crawl:  serve.CrawlSpec{Strategy: "sb", Seed: r.seed*1000003 + int64(i), MaxRequests: r.p.CrawldBudget},
		Sites:  []serve.SiteSpec{r.specs[i%len(r.specs)]},
	}
}

// reference crawls every CrawldCheckEvery-th session's unit with the library
// and the seed the daemon derives for it.
func (r *crawldRunner) reference() error {
	total := r.p.CrawldBurst + r.p.CrawldInteractive
	for i := 0; i < total; i += r.p.CrawldCheckEvery {
		spec := r.spec(i)
		cfg := sbcrawl.Config{Strategy: sbcrawl.StrategySB, Seed: fleet.DeriveSeed(spec.Crawl.Seed, 0), MaxRequests: spec.Crawl.MaxRequests}
		o := fromPublic(sbcrawl.CrawlSite(r.sites[i%len(r.sites)], cfg))
		if o.err != nil {
			return fmt.Errorf("reference crawl of session %d: %w", i, o.err)
		}
		r.refs[i] = o.fingerprint()
	}
	return nil
}

// warmup drives an eighth of a pass: a pass is thousands of crawls over a
// fresh daemon, so process warm-up is spent after the first hundred.
func (r *crawldRunner) warmup() error {
	_, _, err := r.drive(nil, r.p.CrawldBurst/8, r.p.CrawldInteractive/8)
	return err
}

func (r *crawldRunner) pass() (passStats, error) {
	p, _, err := r.drive(nil, r.p.CrawldBurst, r.p.CrawldInteractive)
	return p, err
}

func (r *crawldRunner) layers(tr *tracer) (map[string]float64, passStats, error) {
	p, m, err := r.drive(tr, r.p.CrawldBurst, r.p.CrawldInteractive)
	return m, p, err
}

// drive runs one pass. With a tracer it also wraps every client call in a
// span and takes the operator-side readings (status latency, listing at
// peak, fairness at half drain, reload, direct create) that would disturb an
// untraced pass.
func (r *crawldRunner) drive(tr *tracer, burst, inter int) (passStats, map[string]float64, error) {
	r.n++
	dir := filepath.Join(r.dir, fmt.Sprintf("crawld-%d", r.n))
	defer os.RemoveAll(dir)
	d, err := r.startDaemon(dir)
	if err != nil {
		return passStats{}, nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	ctx := context.Background()
	client := serve.NewClient(d.ts.URL)
	root := -1
	if tr != nil {
		root = tr.begin("pass", -1)
	}
	call := func(name string, fn func() error) (float64, error) {
		id := -1
		if tr != nil {
			id = tr.begin(name, root)
		}
		t0 := time.Now()
		err := fn()
		dt := time.Since(t0).Seconds()
		if tr != nil {
			tr.end(id)
		}
		return dt, err
	}

	final := make([]serve.SessionStatus, burst+inter)
	attach := make([]float64, burst+inter)
	status := make([]float64, burst)
	done := make([]float64, inter)
	var firstErr atomic.Value
	fail := func(err error) { firstErr.CompareAndSwap(nil, err) }
	// fanOut runs fn(i) for lo <= i < hi over the closed-loop clients, one
	// per core the process may use.
	fanOut := func(lo, hi int, fn func(i int)) {
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for c := 0; c < runtime.GOMAXPROCS(0); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi || firstErr.Load() != nil {
						return
					}
					fn(i)
				}
			}()
		}
		wg.Wait()
	}
	create := func(i int) (serve.SessionStatus, error) {
		var st serve.SessionStatus
		dt, err := call("serve.create", func() (err error) {
			st, err = client.Create(ctx, r.spec(i))
			return err
		})
		attach[i] = dt
		return st, err
	}
	waitDone := func(i int, id string) {
		_, err := call("serve.waitdone", func() (err error) {
			final[i], err = client.WaitDone(ctx, id)
			return err
		})
		if err != nil {
			fail(err)
		}
	}

	m := map[string]float64{}
	meter := startMeter()

	// burst
	ids := make([]string, burst)
	fanOut(0, burst, func(i int) {
		st, err := create(i)
		if err != nil {
			fail(err)
			return
		}
		ids[i] = st.ID
		if tr != nil {
			status[i], err = call("serve.get", func() error {
				_, err := client.Get(ctx, st.ID)
				return err
			})
			if err != nil {
				fail(err)
			}
		}
	})
	if tr != nil && firstErr.Load() == nil {
		if err := r.peakReadings(d, client, burst, call, m); err != nil {
			return passStats{}, nil, err
		}
	}
	fanOut(0, burst, func(i int) { waitDone(i, ids[i]) })
	burstWall := time.Since(meter.t0).Seconds()

	// interactive
	fanOut(burst, burst+inter, func(i int) {
		t0 := time.Now()
		st, err := create(i)
		if err != nil {
			fail(err)
			return
		}
		waitDone(i, st.ID)
		done[i-burst] = time.Since(t0).Seconds()
	})

	var p passStats
	meter.stop(&p)
	if tr != nil {
		tr.end(root)
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return p, nil, err
	}
	for i, st := range final {
		var o outcome
		switch {
		case st.State != serve.StateDone || len(st.Results) != 1:
			o.err = fmt.Errorf("session ended %q with %d results", st.State, len(st.Results))
		case st.Results[0].Err != "":
			o.err = fmt.Errorf("unit failed: %s", st.Results[0].Err)
		default:
			o = fromPublic(st.Results[0].Result, nil)
		}
		p.tally(fmt.Sprintf("session %d", i), o, r.refs[i], r.sites[i%len(r.sites)].PageCount())
	}
	p.extra = map[string]float64{
		"sessions_per_s":      float64(burst) / burstWall,
		"attach_p50_ms":       median(attach[:burst]) * 1e3,
		"attach_p99_ms":       quantile(attach[:burst], 0.99) * 1e3,
		"session_done_p90_ms": quantile(done, 0.9) * 1e3,
	}
	if tr == nil {
		return p, nil, nil
	}

	m["serve.status_p50_ms"] = median(status) * 1e3
	m["serve.status_p99_ms"] = quantile(status, 0.99) * 1e3
	m["serve.session_done_p99_ms"] = quantile(done, 0.99) * 1e3

	// Restart over the store now holding every session record, then create
	// sessions on the Server directly: what HTTP adds is the difference.
	stopped = true
	if err := d.stop(); err != nil {
		return p, nil, err
	}
	t0 := time.Now()
	d2, err := r.startDaemon(dir)
	if err != nil {
		return p, nil, err
	}
	m["serve.reload_s"] = time.Since(t0).Seconds()
	direct := make([]float64, 0, inter/4+1)
	for i := burst + inter; i < burst+inter+cap(direct); i++ {
		spec := r.spec(i)
		c0 := time.Now()
		st, err := d2.srv.Create(spec)
		direct = append(direct, time.Since(c0).Seconds())
		for err == nil && !st.Done() {
			st, err = d2.srv.Wait(ctx, st.ID, st.Seq, 10*time.Second)
		}
		if err != nil {
			d2.stop()
			return p, nil, err
		}
	}
	if err := d2.stop(); err != nil {
		return p, nil, err
	}
	m["serve.direct_create_us"] = median(direct) * 1e6
	m["serve.http_overhead_share"] = 1 - ratio(median(direct), median(attach[burst:]))
	st, err := store.Open(dir)
	if err != nil {
		return p, nil, err
	}
	m["store.garbage_ratio_at_close"] = st.GarbageRatio()
	if err := st.Close(); err != nil {
		return p, nil, err
	}
	m["store.bytes_on_disk"] = float64(dirBytes(dir))
	return p, m, nil
}

// peakReadings runs once the burst's creates are in and the backlog is at
// its deepest: daemon gauges, the cost of listing every session, and — at
// half drain — how far each tenant's completed share is from its weight
// share.
func (r *crawldRunner) peakReadings(d *daemon, client *serve.Client, burst int, call func(string, func() error) (float64, error), m map[string]float64) error {
	ctx := context.Background()
	peak := d.srv.Stats()
	m["serve.peak_sessions"] = float64(peak.Sessions)
	m["serve.queued_units_peak"] = float64(peak.QueuedUnits)
	var lists []float64
	for i := 0; i < 3; i++ {
		dt, err := call("serve.list", func() error {
			_, err := client.List(ctx, "")
			return err
		})
		if err != nil {
			return err
		}
		lists = append(lists, dt)
	}
	m["serve.list_ms_at_peak"] = median(lists) * 1e3

	half := burst / 2
	for {
		st := d.srv.Stats()
		if st.Sessions-st.Active >= half {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	all := d.srv.List("")
	doneBy := map[string]float64{}
	weightBy := map[string]float64{}
	var doneSum, weightSum float64
	for _, st := range all {
		if _, ok := weightBy[st.Tenant]; !ok {
			weightBy[st.Tenant] = float64(st.Weight)
			weightSum += float64(st.Weight)
		}
		if st.Done() {
			doneBy[st.Tenant]++
			doneSum++
		}
	}
	worst := 0.0
	for tenant, w := range weightBy {
		if e := math.Abs(ratio(doneBy[tenant], doneSum) - w/weightSum); e > worst {
			worst = e
		}
	}
	m["serve.fairness_error"] = worst
	return nil
}
