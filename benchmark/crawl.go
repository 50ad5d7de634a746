package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"sbcrawl"
	"sbcrawl/internal/bandit"
	"sbcrawl/internal/core"
	"sbcrawl/internal/faultsim"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/fleet"
	"sbcrawl/internal/metrics"
	"sbcrawl/internal/sitegen"
	"sbcrawl/internal/webserver"
)

// siteSpec names one generated site of a workload; the generation seed is
// derived from the run's -seed.
type siteSpec struct {
	Code  string  `json:"code"`
	Scale float64 `json:"scale"`
}

// federationDomain and the member-seed stride mirror sbcrawl.GenerateFederation
// so the traced pass crawls the same federation the public API generates.
const (
	federationDomain = "federation.test"
	memberSeedStride = 1000003
)

// simSite is the benchmark's own handle on a generated site: the public
// *sbcrawl.Site the untraced passes crawl, and — built on demand for the
// traced pass — the internal twin (same profile, scale and seed, hence the
// same content) whose backend the benchmark can wrap.
type simSite struct {
	pub   *sbcrawl.Site
	codes []string // one code for a site, several for a federation
	scale float64
	seed  int64

	backend fetch.SimBackend // internal twin, nil until twin()
}

func genSite(spec siteSpec, seed int64) (*simSite, error) {
	pub, err := sbcrawl.GenerateSite(spec.Code, spec.Scale, seed)
	if err != nil {
		return nil, err
	}
	return &simSite{pub: pub, codes: []string{spec.Code}, scale: spec.Scale, seed: seed}, nil
}

func genFederation(codes []string, scale float64, seed int64) (*simSite, error) {
	pub, err := sbcrawl.GenerateFederation(codes, scale, seed)
	if err != nil {
		return nil, err
	}
	return &simSite{pub: pub, codes: codes, scale: scale, seed: seed}, nil
}

// twin builds the internal backend, with the same wiring as
// sbcrawl.GenerateSite / GenerateFederation / siteCrawlEnv.
func (s *simSite) twin() fetch.SimBackend {
	if s.backend != nil {
		return s.backend
	}
	gen := func(code string, seed int64) *sitegen.Site {
		profile, _ := sitegen.ProfileByCode(code) // the public generator already accepted the code
		return sitegen.Generate(sitegen.Config{Profile: profile, Scale: s.scale, Seed: seed})
	}
	if len(s.codes) > 1 {
		members := make([]*sitegen.Site, len(s.codes))
		for i, code := range s.codes {
			members[i] = gen(code, s.seed+int64(i)*memberSeedStride)
		}
		s.backend = webserver.NewFederation(federationDomain, members)
		return s.backend
	}
	site := gen(s.codes[0], s.seed)
	s.backend = webserver.New(site)
	if site.Profile.Faults != nil {
		s.backend = webserver.NewFlaky(s.backend, faultsim.NewPlan(*site.Profile.Faults))
	}
	return s.backend
}

// outcome is one crawl's result in neutral form, whichever API produced it.
type outcome struct {
	targets        []string
	requests       int
	headRequests   int // core results only
	steps          int // core results only
	targetBytes    int64
	nonTargetBytes int64
	curve          []sbcrawl.CurvePoint
	failedRequests int
	err            error
}

// errNoResult stands in for a crawl that returned neither result nor error.
var errNoResult = errors.New("no result")

func fromPublic(res *sbcrawl.Result, err error) outcome {
	if res == nil && err == nil {
		err = errNoResult
	}
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{targets: res.Targets, requests: res.Requests, targetBytes: res.TargetBytes,
		nonTargetBytes: res.NonTargetBytes, curve: res.Curve}
	if res.Faults != nil {
		o.failedRequests = res.Faults.FailedRequests
	}
	return o
}

func fromCore(res *core.Result, err error) outcome {
	if res == nil && err == nil {
		err = errNoResult
	}
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{targets: res.Targets, requests: res.Requests, headRequests: res.HeadRequests, steps: res.Steps,
		targetBytes: res.TargetBytes, nonTargetBytes: res.NonTargetBytes}
	for _, pt := range metrics.Curve(res.Trace, 500) {
		o.curve = append(o.curve, sbcrawl.CurvePoint(pt))
	}
	if res.Faults != nil {
		o.failedRequests = res.Faults.FailedRequests
	}
	return o
}

// fingerprint digests everything the determinism guarantee covers: Targets
// in order, Requests, byte totals and the Curve.
func (o outcome) fingerprint() string {
	if o.err != nil {
		return "error: " + o.err.Error()
	}
	h := sha256.New()
	var b [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	num(int64(len(o.targets)))
	for _, t := range o.targets {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	num(int64(o.requests))
	num(o.targetBytes)
	num(o.nonTargetBytes)
	for _, pt := range o.curve {
		num(int64(pt.Requests))
		num(int64(pt.Targets))
		num(pt.TargetBytes)
		num(pt.NonTargetBytes)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// distinct counts the distinct target URLs and the repeats among them.
func (o outcome) distinct() (n, duplicates int) {
	seen := make(map[string]struct{}, len(o.targets))
	for _, t := range o.targets {
		seen[t] = struct{}{}
	}
	return len(seen), len(o.targets) - len(seen)
}

// requestsTo90 is the charged-request count at which the crawl held 90% of
// the targets it retrieved (Table 2's measure, read off the public Curve).
func (o outcome) requestsTo90() int {
	if len(o.curve) == 0 {
		return o.requests
	}
	final := o.curve[len(o.curve)-1].Targets
	need := (final*9 + 9) / 10
	for _, pt := range o.curve {
		if pt.Targets >= need {
			return pt.Requests
		}
	}
	return o.requests
}

// passStats is what one pass of a workload measured.
type passStats struct {
	wall, cpu, allocMB float64
	requests           int // charged requests, summed over the crawls
	targets            int // distinct targets, summed over the crawls
	duplicates         int
	req90, pages       int // Σ requestsTo90 and Σ site pages over the crawls
	attempted, failed  int
	mismatches         []string
	extra              map[string]float64 // workload-specific quantities
}

// tally folds one crawl into the pass: every charged request and the crawl
// itself count as attempted operations. want is the reference fingerprint
// ("" for a crawl the workload samples out of its output check).
func (p *passStats) tally(label string, o outcome, want string, pages int) {
	p.attempted += o.requests + 1
	p.failed += o.failedRequests
	if o.err != nil {
		p.failed++
		p.mismatches = append(p.mismatches, fmt.Sprintf("%s: %v", label, o.err))
		return
	}
	if got := o.fingerprint(); want != "" && got != want {
		p.failed++
		p.mismatches = append(p.mismatches, fmt.Sprintf("%s: fingerprint %s, reference %s", label, got, want))
	}
	n, dup := o.distinct()
	p.requests += o.requests
	p.targets += n
	p.duplicates += dup
	p.req90 += o.requestsTo90()
	p.pages += pages
}

// plain strips a Config down to the result-relevant fields: the sequential,
// zero-latency, fault-free, store-less crawl every accelerated pass must
// reproduce byte for byte.
func plain(cfg sbcrawl.Config) sbcrawl.Config {
	return sbcrawl.Config{Strategy: cfg.Strategy, Seed: cfg.Seed, MaxRequests: cfg.MaxRequests}
}

// crawlJob is one site crawl of a workload.
type crawlJob struct {
	site *simSite
	cfg  sbcrawl.Config // the job's own Config (per-job seed applied)
	ref  string         // fingerprint of the plain reference crawl
	// checkpointEvery is the crawl's durable checkpoint cadence (0: the
	// crawl has no store and takes no checkpoints).
	checkpointEvery int
}

// crawlRunner runs the four crawl workloads: sequential CrawlSite calls, or
// one CrawlSites fleet when fleetOpts is set.
type crawlRunner struct {
	name      string
	jobs      []crawlJob
	cfg       sbcrawl.Config // the shared Config (fleet seed)
	fleetOpts *sbcrawl.FleetOptions
}

// newCrawlRunner derives each job's Config the way the library will: a fleet
// gives job i the seed fleet.DeriveSeed(cfg.Seed, i), sequential calls share
// cfg.Seed.
func newCrawlRunner(name string, sites []*simSite, cfg sbcrawl.Config, fleetOpts *sbcrawl.FleetOptions) *crawlRunner {
	r := &crawlRunner{name: name, cfg: cfg, fleetOpts: fleetOpts}
	for i, s := range sites {
		jc := cfg
		if fleetOpts != nil {
			jc.Seed = fleet.DeriveSeed(cfg.Seed, i)
		}
		r.jobs = append(r.jobs, crawlJob{site: s, cfg: jc})
	}
	return r
}

func (r *crawlRunner) reference() error {
	for i := range r.jobs {
		j := &r.jobs[i]
		o := fromPublic(sbcrawl.CrawlSite(j.site.pub, plain(j.cfg)))
		if o.err != nil {
			return fmt.Errorf("reference crawl of %s: %w", j.site.pub.Code(), o.err)
		}
		j.ref = o.fingerprint()
	}
	return nil
}

func (r *crawlRunner) pubSites() []*sbcrawl.Site {
	sites := make([]*sbcrawl.Site, len(r.jobs))
	for i, j := range r.jobs {
		sites[i] = j.site.pub
	}
	return sites
}

// run executes the workload once through the public API and returns the
// outcomes in job order.
func (r *crawlRunner) run(cfg sbcrawl.Config, fleetOpts *sbcrawl.FleetOptions) ([]outcome, error) {
	outs := make([]outcome, len(r.jobs))
	if fleetOpts == nil {
		for i, j := range r.jobs {
			jc := cfg
			jc.Seed = j.cfg.Seed
			outs[i] = fromPublic(sbcrawl.CrawlSite(j.site.pub, jc))
		}
		return outs, nil
	}
	fr, err := sbcrawl.CrawlSites(r.pubSites(), cfg, *fleetOpts)
	if err != nil {
		return nil, err
	}
	for i, s := range fr.Sites {
		outs[i] = fromPublic(s.Result, s.Err)
	}
	return outs, nil
}

// warmup is one full untimed pass: the first crawl in a process runs about a
// quarter slower than the second.
func (r *crawlRunner) warmup() error {
	_, err := r.pass()
	return err
}

func (r *crawlRunner) pass() (passStats, error) {
	m := startMeter()
	outs, err := r.run(r.cfg, r.fleetOpts)
	var p passStats
	m.stop(&p)
	if err != nil {
		return p, err
	}
	r.tallyAll(&p, outs)
	return p, nil
}

func (r *crawlRunner) tallyAll(p *passStats, outs []outcome) {
	for i, o := range outs {
		j := r.jobs[i]
		p.tally(fmt.Sprintf("%s#%d", j.site.pub.Code(), i), o, j.ref, j.site.pub.PageCount())
	}
}

// --- the traced pass: the benchmark builds each crawl's core.Env itself ---

// tracedEnv wires a crawl Env over the site's internal twin exactly as
// sbcrawl.siteCrawlEnv does, with the span wrapper at the bottom
// fetch.Fetcher.
func tracedEnv(j *jobTrace, site *simSite, cfg sbcrawl.Config, ctx context.Context) *core.Env {
	var fetcher fetch.Fetcher = fetch.NewSim(site.twin())
	if cfg.FaultRate > 0 {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		fetcher = fetch.NewFaultInjector(fetcher, faultsim.NewPlan(faultsim.Schedule{Seed: seed, Rate: cfg.FaultRate}))
	}
	if cfg.SimLatency > 0 {
		fetcher = &fetch.Latency{Backend: fetcher, Delay: cfg.SimLatency, Ctx: ctx}
	}
	rp := fetch.DefaultRetryPolicy()
	rp.Seed = cfg.Seed
	bp := fetch.DefaultBreakerPolicy()
	return &core.Env{
		Root:         site.pub.Root(),
		Fetcher:      &tracedFetcher{next: fetcher, j: j, record: true},
		MaxRequests:  cfg.MaxRequests,
		Ctx:          ctx,
		Prefetch:     cfg.Prefetch,
		ParseWorkers: cfg.ParseWorkers,
		Partitions:   cfg.Partitions,
		Retry:        &rp,
		Breaker:      &bp,
	}
}

// tracedCrawler mirrors sbcrawl.buildCrawler for the strategies the
// workloads use; SB gets the default sleeping bandit behind the span wrapper.
func tracedCrawler(j *jobTrace, cfg sbcrawl.Config) (core.Crawler, error) {
	switch cfg.Strategy {
	case "", sbcrawl.StrategySB:
		return core.NewSB(core.SBConfig{Seed: cfg.Seed, Policy: &tracedPolicy{Policy: bandit.NewSleeping(), j: j}}), nil
	case sbcrawl.StrategyBFS:
		return core.NewBFS(), nil
	case sbcrawl.StrategyDFS:
		return core.NewDFS(), nil
	}
	return nil, fmt.Errorf("benchmark: no traced wiring for strategy %q", cfg.Strategy)
}

// tracedRun is what the traced pass of a crawl workload captured.
type tracedRun struct {
	pass    passStats
	root    int // the pass's root span
	jobs    []*jobTrace
	results []*core.Result
}

func (r *crawlRunner) traced(tr *tracer) (*tracedRun, error) {
	run := &tracedRun{jobs: make([]*jobTrace, len(r.jobs)), results: make([]*core.Result, len(r.jobs))}
	for _, j := range r.jobs {
		j.site.twin() // built here, once: fleet jobs sharing a site run concurrently
	}
	m := startMeter()
	run.root = tr.begin("pass", -1)
	crawl := func(ctx context.Context, i int, shared fetch.SharedStore) (*core.Result, error) {
		job := r.jobs[i]
		jt := &jobTrace{tr: tr}
		jt.span = tr.begin("crawl:"+job.site.pub.Code(), run.root)
		defer tr.end(jt.span)
		run.jobs[i] = jt
		env := tracedEnv(jt, job.site, job.cfg, ctx)
		env.SharedSpec = shared
		crawler, err := tracedCrawler(jt, job.cfg)
		if err != nil {
			return nil, err
		}
		res, err := crawler.Run(env)
		run.results[i] = res
		return res, err
	}
	outs := make([]outcome, len(r.jobs))
	if r.fleetOpts == nil {
		for i := range r.jobs {
			outs[i] = fromCore(crawl(nil, i, nil))
		}
	} else {
		// The fleet's own wiring (sbcrawl.CrawlSites): one shared speculation
		// cache per distinct site, jobs over fleet.Run.
		caches := map[*simSite]*fleet.SpecCache{}
		jobs := make([]fleet.Job, len(r.jobs))
		for i, j := range r.jobs {
			i := i
			var shared fetch.SharedStore
			if r.fleetOpts.SharedSpeculation {
				if caches[j.site] == nil {
					caches[j.site] = fleet.NewSpecCache(r.fleetOpts.SpecCacheCap)
				}
				shared = caches[j.site]
			}
			jobs[i] = fleet.Job{Label: j.site.pub.Code(), Run: func(ctx context.Context) (*core.Result, error) {
				return crawl(ctx, i, shared)
			}}
		}
		sum, err := fleet.Run(jobs, fleet.Options{Workers: r.fleetOpts.Workers})
		if err != nil {
			return nil, err
		}
		for i, s := range sum.Sites {
			outs[i] = fromCore(s.Result, s.Err)
		}
	}
	tr.end(run.root)
	m.stop(&run.pass)
	r.tallyAll(&run.pass, outs)
	return run, nil
}

// soloRate times the workload once with an accelerator switched off and
// returns its request rate, checking outputs all the same.
func (r *crawlRunner) soloRate(cfg sbcrawl.Config, fleetOpts *sbcrawl.FleetOptions) (float64, error) {
	t0 := time.Now()
	outs, err := r.run(cfg, fleetOpts)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	var p passStats
	r.tallyAll(&p, outs)
	if p.failed > 0 {
		return 0, fmt.Errorf("solo pass failed its output check: %v", p.mismatches)
	}
	return ratio(float64(p.requests), wall), nil
}
