package sbcrawl

// This file is the public face of the multi-site orchestrator: CrawlMany
// fans live crawls out over a worker pool, CrawlSites does the same for
// simulated batches. Per-site results are byte-identical whatever the
// worker count, failures are isolated per site, and live crawls coordinate
// politeness through one per-host politeness registry (Config.Hosts or the
// process-wide default).

import (
	"context"
	"fmt"
	"net/http"

	"sbcrawl/internal/core"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/fleet"
	"sbcrawl/internal/metrics"
)

// FleetOptions configures a multi-site crawl.
type FleetOptions struct {
	// Workers is the number of crawls running concurrently (0 → one per
	// CPU core). Results do not depend on it.
	Workers int
	// Ctx cancels the fleet: crawls not yet started are skipped with the
	// context's error, and running crawls stop at their next request,
	// contributing their partial results.
	Ctx context.Context
	// SharedSpeculation, together with a non-zero Config.Prefetch, shares
	// speculative fetch results across the fleet's crawls, BUbiNG-style:
	// several crawls of one site reuse each other's speculative GETs from
	// a URL-keyed cache instead of re-fetching them. CrawlSites scopes one
	// cache per distinct *Site (repeating a Site in the slice crawls it
	// from several "entry points" that share the cache); CrawlMany scopes
	// one cache per distinct UserAgent — robots.txt admission and response
	// content may depend on the agent, so only crawls presenting the same
	// fetch identity serve each other — with URL keys embedding the host,
	// and entries pointing at one host must be crawling the same content.
	// Per-site results stay byte-identical to unshared crawls: every
	// cached response is exactly what the site would have served. Results
	// still never depend on Workers.
	SharedSpeculation bool
	// SpecCacheCap bounds each shared speculation cache in responses
	// (0 → fleet.DefaultSpecCacheCap, 8192). The cache lives for one fleet
	// call; with Config.StorePath set, what it evicts — and what a later
	// fleet asks for — is served by the durable replay database.
	SpecCacheCap int
}

// SiteOutcome is one crawl of a fleet, in input order.
type SiteOutcome struct {
	// Index is the crawl's position in the input slice.
	Index int
	// Label identifies the site: the Config.Root for CrawlMany, the site
	// code for CrawlSites.
	Label string
	// Result is the finished crawl (partial when cancelled mid-flight);
	// nil when the crawl failed to start.
	Result *Result
	// Err reports a failed or skipped crawl; nil on success.
	Err error
}

// FleetResult aggregates a multi-site crawl.
type FleetResult struct {
	// Sites holds one outcome per requested crawl, in input order.
	Sites []SiteOutcome
	// Completed and Failed partition the crawls.
	Completed, Failed int
	// Totals over every crawl that produced a result.
	Targets        int
	Requests       int
	TargetBytes    int64
	NonTargetBytes int64
	// Curve merges the per-site progress curves position-wise: point i
	// sums every site's cumulative state after its own i-th request, with
	// finished crawls carrying their final values forward.
	Curve []CurvePoint
	// Speculation sums the speculative-fetch outcomes of the fleet's
	// pipelined crawls (all zero when Config.Prefetch was 0). Wall-clock
	// diagnostic: the counters depend on fetch timing — use them to judge
	// hint quality and shared-cache reuse, never to compare results.
	Speculation SpeculationStats
	// Store aggregates the per-site persistent-store activity (see
	// Result.Store): counters summed, Resumed true when any site started
	// warm, Completed true when every site was served from its
	// done-record. Nil when Config.StorePath was empty.
	Store *StoreStats
	// Faults sums the fault-handling activity (retries, breaker trips,
	// final failures) of every crawl that produced a result, with the
	// per-site quarantined-host lists concatenated. Nil when no crawl
	// recorded any fault.
	Faults *FaultStats
}

// SpeculationStats reports speculative-fetch outcomes: fetches launched
// ahead of demand, demand requests answered from speculation (Hits, of
// which SharedHits came from the fleet-shared cache) or the backend
// (Misses), speculation dropped unconsumed (Evicted), and HEAD probes
// served speculatively (HeadHits).
type SpeculationStats = fetch.PrefetchStats

// CrawlMany runs one live crawl per Config concurrently, one site per
// worker slot (see Crawl for single-site semantics). A bad entry — missing
// Root, oracle strategy, unreachable site — fails only its own slot; the
// rest of the batch completes and the error is reported in its
// SiteOutcome. The only errors CrawlMany itself returns are an empty batch,
// a store that cannot be opened, and — alongside the result — the context's
// error after cancellation or a failed close of Config.StorePath.
//
// All live crawls without a Config.Hosts share the process-wide default
// politeness registry, so two entries pointing at the same host stay
// MinDelay apart even while crawling in parallel.
func CrawlMany(cfgs []Config, opts FleetOptions) (_ *FleetResult, err error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sbcrawl: CrawlMany needs at least one Config")
	}
	st, release, err := fleetStore(cfgs)
	if err != nil {
		return nil, err
	}
	defer closeInto(release, &err)
	tr := http.DefaultTransport.(*http.Transport).Clone() // see liveEnv
	defer tr.CloseIdleConnections()
	// One speculation cache per distinct UserAgent: a host may serve (and
	// robots.txt may admit) different agents differently, so crawls only
	// reuse fetches made with their own identity — a cache hit is then
	// always a response this Config could have fetched itself.
	var caches map[string]*fleet.SpecCache
	if opts.SharedSpeculation {
		caches = make(map[string]*fleet.SpecCache)
		for _, cfg := range cfgs {
			if caches[cfg.UserAgent] == nil {
				caches[cfg.UserAgent] = fleet.NewSpecCache(opts.SpecCacheCap)
			}
		}
	}
	jobs := make([]fleet.Job, len(cfgs))
	stats := make([]*StoreStats, len(cfgs))
	for i, cfg := range cfgs {
		var shared fetch.SharedStore
		if c := caches[cfg.UserAgent]; c != nil {
			shared = c
		}
		// Persistence is per Config: an entry that did not ask for a store
		// crawls unpersisted even when the rest of the batch is durable.
		jobStore := st
		if cfg.StorePath == "" && cfg.Store == nil {
			jobStore = nil
		}
		jobs[i] = fleet.Job{Label: cfg.Root, Run: liveJob(cfg, shared, tr, jobStore, &stats[i])}
	}
	return runFleet(jobs, opts, stats)
}

// fleetStore resolves the one store handle a fleet writes through: every
// Config with persistence must agree — the same shared open handle
// (Config.Store), or the same StorePath (opened here, closed by release).
func fleetStore(cfgs []Config) (st *Store, release func() error, err error) {
	noop := func() error { return nil }
	var shared *Store
	storePath := ""
	for _, cfg := range cfgs {
		if cfg.Store != nil {
			if shared != nil && shared != cfg.Store {
				return nil, nil, fmt.Errorf("sbcrawl: fleet configs disagree on Config.Store (%q vs %q)", shared.path, cfg.Store.path)
			}
			shared = cfg.Store
		}
		switch {
		case cfg.StorePath == "" || cfg.StorePath == storePath:
		case storePath == "":
			storePath = cfg.StorePath
		default:
			return nil, nil, fmt.Errorf("sbcrawl: fleet configs disagree on StorePath (%q vs %q)", storePath, cfg.StorePath)
		}
	}
	if shared != nil {
		if storePath != "" && storePath != shared.path {
			return nil, nil, fmt.Errorf("sbcrawl: fleet Config.Store is open at %q but a StorePath says %q", shared.path, storePath)
		}
		return shared, noop, nil
	}
	if storePath == "" {
		return nil, noop, nil
	}
	if st, err = OpenStore(storePath); err != nil {
		return nil, nil, err
	}
	return st, st.Close, nil
}

// liveJob builds the per-site closure running one live crawl, through the
// same validation and wiring as Crawl (see liveEnv).
func liveJob(cfg Config, shared fetch.SharedStore, tr http.RoundTripper, st *Store, slot **StoreStats) func(ctx context.Context) (*core.Result, error) {
	return func(ctx context.Context) (*core.Result, error) {
		env, err := liveEnv(cfg, ctx, shared, tr)
		if err != nil {
			return nil, err
		}
		return runFleetCrawl(cfg, env, 0, st, liveNamespace(cfg), slot)
	}
}

// CrawlSites crawls every simulated site concurrently with the shared
// Config. Each site receives its own deterministic seed derived from
// (cfg.Seed, index), so a fleet over N sites is reproducible end to end
// and byte-identical whatever the worker count; run sites with individual
// Configs through sequential CrawlSite calls if per-site settings are
// needed.
func CrawlSites(sites []*Site, cfg Config, opts FleetOptions) (_ *FleetResult, err error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("sbcrawl: CrawlSites needs at least one Site")
	}
	st, release, err := storeFor(cfg)
	if err != nil {
		return nil, err
	}
	defer closeInto(release, &err)
	// One speculation cache per distinct Site: sharing is only sound when
	// every member sees identical content per URL, which a Site guarantees
	// and two different Sites (even of one profile, at another seed) do
	// not.
	var caches map[*Site]*fleet.SpecCache
	if opts.SharedSpeculation {
		caches = make(map[*Site]*fleet.SpecCache)
		for _, site := range sites {
			if caches[site] == nil {
				caches[site] = fleet.NewSpecCache(opts.SpecCacheCap)
			}
		}
	}
	jobs := make([]fleet.Job, len(sites))
	stats := make([]*StoreStats, len(sites))
	for i, site := range sites {
		siteCfg := cfg
		siteCfg.Seed = fleet.DeriveSeed(cfg.Seed, i)
		jobs[i] = fleet.Job{Label: site.Code(), Run: simJob(site, siteCfg, caches[site], st, &stats[i])}
	}
	return runFleet(jobs, opts, stats)
}

// simJob builds the per-site closure running one simulated crawl.
func simJob(site *Site, cfg Config, shared *fleet.SpecCache, st *Store, slot **StoreStats) func(ctx context.Context) (*core.Result, error) {
	return func(ctx context.Context) (*core.Result, error) {
		env := siteCrawlEnv(site, cfg, ctx)
		if shared != nil {
			env.SharedSpec = shared
		}
		return runFleetCrawl(cfg, env, site.PageCount(), st, simNamespace(site), slot)
	}
}

// runFleetCrawl is runCrawl without the public-type conversion: fleet
// aggregation wants the internal result, and conversion happens once per
// site in runFleet. With a store handle it runs the persisted path —
// disk-backed replay, checkpoints, done-records — through the fleet's
// shared handle, depositing the site's store stats in its slot.
func runFleetCrawl(cfg Config, env *core.Env, sitePages int, st *Store, ns string, slot **StoreStats) (*core.Result, error) {
	if st == nil {
		res, _, err := execCrawl(cfg, env, sitePages)
		return res, err
	}
	res, stats, err := persistedRun(st, cfg, env, sitePages, ns)
	if err != nil {
		return nil, err
	}
	*slot = stats
	return res, nil
}

// runFleet executes the jobs and converts the summary to the public type.
func runFleet(jobs []fleet.Job, opts FleetOptions, storeStats []*StoreStats) (*FleetResult, error) {
	sum, err := fleet.Run(jobs, fleet.Options{Workers: opts.Workers, Ctx: opts.Ctx})
	out := &FleetResult{
		Sites:          make([]SiteOutcome, len(sum.Sites)),
		Completed:      sum.Completed,
		Failed:         sum.Failed,
		Targets:        sum.Targets,
		Requests:       sum.Requests,
		TargetBytes:    sum.TargetBytes,
		NonTargetBytes: sum.NonTargetBytes,
		Speculation:    sum.Spec,
	}
	if !sum.Faults.Zero() {
		out.Faults = &sum.Faults
	}
	for i, s := range sum.Sites {
		out.Sites[i] = SiteOutcome{Index: s.Index, Label: s.Label, Err: s.Err}
		if s.Result != nil {
			out.Sites[i].Result = convertResult(s.Result)
			if i < len(storeStats) && storeStats[i] != nil {
				out.Sites[i].Result.Store = storeStats[i]
			}
		}
	}
	// Aggregate the persistent-store activity: Completed only when every
	// site was a done-record short-circuit — a failed or skipped site
	// (nil slot) breaks it like a re-executed one does.
	agg := &StoreStats{Completed: true}
	seen := false
	for _, st := range storeStats {
		if st != nil {
			agg.add(st)
			seen = true
		} else {
			agg.Completed = false
		}
	}
	if seen {
		out.Store = agg
	}
	out.Curve = metrics.Curve(sum.Trace, 500)
	return out, err
}
