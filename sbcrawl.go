// Package sbcrawl is a focused web crawler for scalable data acquisition,
// reproducing "Efficient Crawling for Scalable Web Data Acquisition"
// (EDBT 2026). Its SB-CLASSIFIER strategy retrieves as many target files
// (CSV, spreadsheets, PDF, …, identified by MIME type) as possible from a
// single website while minimizing HTTP requests and transferred volume,
// by learning online — with a sleeping bandit over tag-path actions and an
// online URL classifier — which links lead to target-rich pages.
//
// Quick start against a live website:
//
//	res, err := sbcrawl.Crawl(sbcrawl.Config{
//		Root:        "https://www.example.org/",
//		MaxRequests: 5000,
//	})
//
// Or against a built-in simulated website (no network):
//
//	site, _ := sbcrawl.GenerateSite("ju", 0.01, 1)
//	res, _ := sbcrawl.CrawlSite(site, sbcrawl.Config{})
//
// # Crawling many sites at once
//
// CrawlMany and CrawlSites run a fleet of independent crawls over a worker
// pool (see examples/fleet), aggregating per-site results into a
// FleetResult. Per-site outcomes are byte-identical whatever the worker
// count, and a process-wide per-host politeness registry keeps concurrent
// live crawls of one host MinDelay apart.
//
// # Concurrency
//
// A Site (and the servers behind it) is immutable after GenerateSite and
// safe to share between concurrent crawls. A single Crawl/CrawlSite call
// runs on one goroutine; each crawl owns its fetcher and crawler state, so
// any number of calls may run in parallel — CrawlMany and CrawlSites are
// the packaged form of that pattern. Config values are plain data and may
// be reused freely.
//
// Within one crawl, the engine runs a staged pipeline: the crawl loop is a
// strictly sequential select→fetch→ingest iteration, and Config.Prefetch
// adds a speculative prefetch stage behind it — a bounded window of
// asynchronous fetches for the URLs the strategy is most likely to select
// next, hinted by the frontier itself. Selection and ingestion own all
// crawl state and randomness, so results are byte-identical at every
// prefetch width; only the fetch latency is hidden. Politeness survives
// pipelining: speculative requests pass through the same per-host
// politeness registry, so a host is never contacted faster than MinDelay
// no matter how wide the window. Config.Prefetch = PrefetchAuto makes the
// window self-tuning — an AIMD controller widens it while hints keep
// landing and narrows it when speculation is wasted; there is one window per
// crawl, nothing beside it — and FleetOptions.SharedSpeculation lets a
// fleet's crawls of one site serve each other from a shared speculation
// cache. The two concurrency axes compose — a fleet overlaps crawls across
// sites while Prefetch overlaps requests within each site. Cancellation
// (FleetOptions.Ctx) interrupts politeness and simulated-latency sleeps
// promptly rather than finishing them.
//
// # Persistence
//
// Config.StorePath makes a crawl durable: every response is written
// through to an append-only segment log on disk (the persistent form of
// the paper's Section 4.4 local response database), the engine checkpoints
// its progress periodically, and finished crawls record their results. A
// crawl killed at any point — budget, cancellation, or a crash — resumes
// by simply running the same Config again: the completed prefix replays
// from disk and the Result is byte-identical to a never-interrupted run.
// Config.Resume additionally skips crawls whose recorded results are
// already stored, so a restarted fleet only re-executes unfinished sites.
// A later fleet over the same store starts warm from that one response
// database; FleetOptions.SharedSpeculation caches live in memory for one
// fleet call. See examples/stop_resume and internal/store.
package sbcrawl

import (
	"context"
	"fmt"
	"time"

	"sbcrawl/internal/core"
	"sbcrawl/internal/fabric"
	"sbcrawl/internal/faultsim"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/metrics"
	"sbcrawl/internal/urlutil"
)

// Strategy selects a crawling policy. StrategySB is the paper's
// contribution; the rest are the evaluation baselines.
type Strategy string

// Available strategies.
const (
	StrategySB         Strategy = "sb"         // SB-CLASSIFIER (default)
	StrategySBOracle   Strategy = "sb-oracle"  // SB-ORACLE (simulated sites only)
	StrategyBFS        Strategy = "bfs"        // breadth-first
	StrategyDFS        Strategy = "dfs"        // depth-first
	StrategyRandom     Strategy = "random"     // uniform random frontier
	StrategyFocused    Strategy = "focused"    // classic focused crawler
	StrategyTPOff      Strategy = "tpoff"      // offline tag-path crawler (simulated sites only)
	StrategyTRES       Strategy = "tres"       // topical RL crawler (simulated sites only)
	StrategyOmniscient Strategy = "omniscient" // perfect-knowledge bound (simulated sites only)
)

// Config configures a crawl. The zero value (plus Root) runs SB-CLASSIFIER
// with the paper's default hyper-parameters.
type Config struct {
	// Root is the website's start URL. Required by Crawl; ignored by
	// CrawlSite (the simulated site knows its root).
	Root string
	// Strategy selects the crawler (default StrategySB).
	Strategy Strategy
	// TargetMIMEs overrides the target MIME-type list (default: the
	// paper's 38 data-file types).
	TargetMIMEs []string
	// MaxRequests caps the HTTP budget (0 = crawl to exhaustion).
	MaxRequests int
	// Politeness is the delay between successive live HTTP requests
	// (default 1s; ignored for simulated crawls).
	Politeness time.Duration
	// Seed makes stochastic choices reproducible.
	Seed int64
	// EarlyStop enables the target-discovery stopping rule of Sec. 4.8.
	EarlyStop bool
	// SimLatency injects a fixed per-request delay into simulated crawls
	// (CrawlSite / CrawlSites), modelling network round-trip time so
	// parallel-fleet speedups are measurable; ignored by live crawls.
	SimLatency time.Duration
	// Prefetch pipelines the crawl: up to Prefetch speculative fetches for
	// the strategy's likely-next URLs run concurrently behind the
	// sequential crawl loop, hiding per-request latency inside a single
	// site crawl (0 = off). PrefetchAuto selects the adaptive controller
	// instead of a fixed width: the speculation window starts narrow and
	// is widened or narrowed online — AIMD over the observed hint hit
	// rate — so latency hiding tracks the strategy's predictability (BFS
	// hints its exact pop order; SB hints the targets it predicts on the
	// page it is ingesting and the bandit's next draw; RANDOM can only
	// guess) without per-strategy tuning. With a budget, no speculative
	// batch is larger than the requests the budget has left after the one
	// being issued. Results are byte-identical whatever the value, adaptive
	// included — prefetching is purely a cache warm-up — and per-host
	// politeness still holds: speculative requests go through the same
	// politeness registry as every other request. Composes with fleet
	// parallelism (CrawlMany / CrawlSites): workers overlap across sites,
	// Prefetch overlaps within each; see FleetOptions.SharedSpeculation
	// for cross-crawl reuse of speculative fetches.
	//
	// While the SB classifier is in its initial training phase, its HEAD
	// probes ride the same speculation window, so the warm-up's round
	// trips overlap too instead of running strictly sequentially.
	//
	// On live crawls, note that speculative requests are real HTTP traffic
	// that is not charged against MaxRequests (Result.Requests counts only
	// what the crawl consumed): a site may receive up to one extra
	// GET — or, during classifier warm-up, HEAD — per discovered URL for
	// speculation that is never used. Each URL is speculated at most once
	// and spacing always respects Politeness, but budget-sensitive live
	// crawls should keep Prefetch small or zero; PrefetchAuto narrows
	// quickly when speculation is not paying off.
	Prefetch int
	// Partitions multiplied the speculation window Prefetch sizes. The
	// adaptive window now reaches that width itself (PrefetchAuto), and a
	// fixed Prefetch is the whole in-flight width.
	//
	// Deprecated: ignored; removed at the benchmark re-base (the frozen
	// benchmark/ names it).
	Partitions int
	// Retries is the transient-failure retry budget per request: after a
	// timeout, connection reset, truncated body, or a 429/503 answer, the
	// request is re-attempted up to Retries times with exponential
	// seeded-jitter backoff, honoring the server's Retry-After. 0 selects
	// the default budget (3 retries); n > 0 sets it; RetriesOff disables
	// retrying AND the per-host circuit breaker (the legacy single-attempt
	// path, where any failure permanently loses the page).
	//
	// With retrying on, a crawl whose transient faults clear within the
	// budget returns a byte-identical Result to a fault-free crawl — only
	// Result.Faults differs. On simulated crawls the backoff is charged
	// virtually (no wall-clock waiting); live crawls really sleep it.
	// Hosts that keep failing after retries trip a circuit breaker:
	// further requests to them fast-fail without network traffic until a
	// cooldown admits a half-open probe, so one dead host degrades
	// gracefully instead of consuming the crawl's budget (see
	// Result.Faults.QuarantinedHosts).
	Retries int
	// FaultRate, for simulated crawls, injects seeded deterministic
	// transient faults into the fraction FaultRate of URLs: each faulty
	// URL fails its first 1–2 attempts (503/429 with Retry-After,
	// connection resets, timeouts, truncated bodies) and then recovers.
	// Reproducible from FaultSeed. Ignored by live crawls.
	FaultRate float64
	// FaultSeed seeds the injected-fault plan (with FaultRate or
	// FaultDeadHosts; defaults to Seed when 0).
	FaultSeed int64
	// FaultDeadHosts, for simulated crawls, lists hostnames that never
	// answer — every request fails, forever — exercising the circuit
	// breaker's graceful degradation. Ignored by live crawls.
	FaultDeadHosts []string
	// ParseWorkers sized the deleted parse-ahead stage.
	//
	// Deprecated: ignored; removed at the benchmark re-base (the frozen
	// benchmark/ names it).
	ParseWorkers int

	// StorePath, when non-empty, opens the persistent crawl store at that
	// directory: every response the crawl fetches is written through to an
	// append-only, CRC-checked segment log (the durable form of the
	// paper's Sec. 4.4 local response database), the engine checkpoints
	// its progress periodically, and a finished crawl records its complete
	// result. A later crawl of the same site over the same store starts
	// warm — previously fetched responses replay from disk instead of
	// re-fetching — and a crawl killed mid-flight resumes deterministically:
	// re-running the same Config replays the completed prefix at memory
	// speed and continues from the exact request the kill interrupted,
	// producing a Result byte-identical to a never-interrupted run, at any
	// Prefetch setting. "Killed" means the process: a checkpoint syncs the
	// store to the OS, not to the disk (only compaction fsyncs), so what
	// the crawl wrote survives its process dying but not an OS crash or a
	// power loss, which can lose what was written since the last
	// compaction. One store directory serves a whole fleet (sites are
	// namespaced inside it) but has a single writer at a time. The
	// store is closed when the call returns; a close that fails (the final
	// flush or compaction) is returned as the call's error beside the
	// Result, since the run's writes may then not be durable.
	StorePath string
	// Resume, with StorePath set, short-circuits crawls that already
	// completed: when the store holds a done-record for this exact Config
	// (strategy, seed, budget, hyper-parameters), the stored Result is
	// returned without re-executing. Crawls without a done-record run
	// normally — over the warm store — so a killed fleet restarted with
	// Resume only re-executes its unfinished sites.
	Resume bool
	// Store, when non-nil, is an already-open persistent crawl store the
	// crawl writes through instead of opening StorePath itself. The store
	// directory has a single writer (see OpenStore), so a long-lived process
	// running many concurrent durable crawls — the crawld daemon — opens the
	// handle once and shares it across all of them; per-call StorePath opens
	// would collide on the writer lock (ErrStoreLocked). StorePath may be
	// left empty or must match the handle's path.
	Store *Store
	// CheckpointEvery overrides the durable checkpoint cadence in charged
	// requests (0 → the engine default, 256). Smaller values tighten the
	// progress observable through Progress / Store.SiteProgress at the cost
	// of more frequent store syncs — the whole cost: a checkpoint is a
	// ~25-byte record of counters whatever the frontier holds, and without a
	// store a Progress call is all there is.
	CheckpointEvery int
	// Progress, when non-nil, observes the crawl's periodic checkpoints
	// in-process: it is called every CheckpointEvery charged requests with
	// the running tallies (Done always false — the crawl is still going).
	// Purely observational — it cannot change the crawl — and called from
	// the crawl's goroutine, so fleets calling one closure from many sites
	// need it to be safe for concurrent use.
	Progress func(CrawlProgress)
	// Hosts, when non-nil, routes the live crawl's politeness through an
	// explicitly-owned per-host registry instead of the process-wide
	// default one: every crawl given the same HostRegistry observes per-host
	// MinDelay spacing across all of them, the registry's politeness floor
	// applies, and per-host traffic is accounted for inspection. The crawld
	// daemon installs its registry on every session so one tenant's crawl
	// can never break another's politeness. Ignored by simulated crawls.
	Hosts *HostRegistry

	// Theta is the tag-path similarity threshold θ (default 0.75).
	Theta float64
	// Alpha is the exploration coefficient α (default 2√2).
	Alpha float64
	// NGram is the tag-path n-gram order (default 2).
	NGram int
	// BatchSize is the URL classifier batch b (default 10).
	BatchSize int
	// ClassifierModel selects "LR" (default), "SVM", "NB", or "PA".
	ClassifierModel string

	// UserAgent identifies the live crawler.
	UserAgent string
}

// PrefetchAuto is the Config.Prefetch value selecting the adaptive
// speculation controller: the prefetch window tunes itself per crawl
// instead of using a fixed width. Any negative Prefetch behaves the same.
const PrefetchAuto = core.PrefetchAuto

// RetriesOff is the Config.Retries value disabling the retry layer and the
// per-host circuit breaker entirely (any negative value behaves the same):
// every request gets exactly one attempt and any failure is final.
const RetriesOff = -1

// CurvePoint is one sample of a crawl's progress curve: the requests issued
// so far and the targets and bytes received by then (fields Requests,
// Targets, TargetBytes and NonTargetBytes, which are also its JSON keys). It
// is an alias of the type the metrics package downsamples a trace into, so a
// Result holds that curve as computed.
type CurvePoint = metrics.CurvePoint

// Result reports a finished crawl.
type Result struct {
	// Strategy is the crawler that ran.
	Strategy string
	// Targets lists the retrieved target URLs, in retrieval order.
	Targets []string
	// Requests is the number of HTTP requests issued (GET + HEAD).
	Requests int
	// TargetBytes and NonTargetBytes split the received volume.
	TargetBytes    int64
	NonTargetBytes int64
	// EarlyStopped reports whether the Sec. 4.8 rule ended the crawl.
	EarlyStopped bool
	// Curve samples the crawl's progress (at most 500 points).
	Curve []CurvePoint
	// Store reports the persistent store's activity (replay hits, warm
	// start, resume short-circuit); nil when Config.StorePath was empty.
	// Diagnostic only: two runs of one Config differ at most here, never
	// in the crawl outcome above.
	Store *StoreStats
	// Fabric reported a partitioned crawl's speculation window.
	//
	// Deprecated: always nil; it stays so crawld's JSON results keep their
	// shape, and goes at the benchmark re-base with fabric.Stats.
	Fabric *FabricStats
	// Faults reports the robustness layer's activity — retries issued and
	// recovered, circuit-breaker trips, quarantined hosts, budget spent on
	// failures; nil when nothing failed. Diagnostic only: under faults
	// that recover within the retry budget, everything above is
	// byte-identical to a fault-free crawl and only this block differs.
	Faults *FaultStats
}

// FaultStats reports one crawl's fault-handling activity (see
// Config.Retries): retries issued and recovered, requests still failing
// after every attempt, the backoff charged between attempts (virtual on
// simulated crawls), circuit-breaker trips and fast-fails, the budget spent
// on final failures, and the hosts still quarantined when the crawl ended.
// All counters are diagnostics.
type FaultStats = fetch.FaultStats

// HostRegistry is an explicitly-owned per-host politeness domain. Every
// live crawl given the same registry (Config.Hosts) observes per-host
// request spacing across all of them — no matter which tenant, session or
// fleet issued the request — and the owner can raise a domain-wide
// politeness floor (SetFloor, Floor) and inspect per-host traffic (Usage,
// HostCount: the hosts tracked, idle ones aging out past 1,024). Crawls
// without a registry share a process-wide default one. A HostRegistry is
// safe for concurrent use.
type HostRegistry = fetch.Registry

// HostUsage is a snapshot of one host's politeness accounting: the host
// (host:port, scheme stripped), the windows granted, the total time
// requests waited for them, and when the last one was claimed.
type HostUsage = fetch.HostUsage

// NewHostRegistry builds an empty politeness registry.
func NewHostRegistry() *HostRegistry { return fetch.NewRegistry() }

// FabricStats is the type of the deprecated Result.Fabric, which is always
// nil; it goes with that field at the benchmark re-base.
type FabricStats = fabric.Stats

// Crawl runs the configured strategy against a live website over HTTP,
// respecting crawling ethics (politeness delay, multimedia interruption).
// Only network-feasible strategies are allowed; oracle strategies need a
// simulated site and are rejected here.
func Crawl(cfg Config) (*Result, error) {
	return CrawlCtx(nil, cfg)
}

// CrawlCtx is Crawl with a cancellation context: a cancelled ctx stops the
// crawl at its next request — interrupting politeness sleeps and in-flight
// requests promptly — and returns the partial Result. With a store attached
// (Config.StorePath / Config.Store), the interrupted crawl's responses are
// already durable, so running the same Config again resumes
// deterministically. A nil ctx never cancels.
func CrawlCtx(ctx context.Context, cfg Config) (*Result, error) {
	env, err := liveEnv(cfg, ctx, nil)
	if err != nil {
		return nil, err
	}
	return runCrawl(cfg, env, 0, liveNamespace(cfg))
}

// liveEnv validates a live-crawl Config and wires its Env: one fresh polite
// HTTP fetcher per crawl (politeness is coordinated across crawls by
// Config.Hosts or the process-wide default registry), with an optional
// cancellation context and an optional fleet-shared speculation store.
// Shared by Crawl and CrawlMany so the two never diverge.
func liveEnv(cfg Config, ctx context.Context, shared fetch.SharedStore) (*core.Env, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("sbcrawl: Config.Root is required")
	}
	switch cfg.Strategy {
	case StrategySBOracle, StrategyTPOff, StrategyTRES, StrategyOmniscient:
		return nil, fmt.Errorf("sbcrawl: strategy %q needs ground truth; use CrawlSite or CrawlSites", cfg.Strategy)
	}
	f := fetch.NewHTTP()
	if cfg.Politeness > 0 {
		f.MinDelay = cfg.Politeness
	}
	if cfg.UserAgent != "" {
		f.UserAgent = cfg.UserAgent
	}
	// The fetcher shares the crawl's context so a cancelled crawl
	// interrupts politeness sleeps and in-flight requests promptly.
	f.Ctx = ctx
	f.Registry = cfg.Hosts
	retry, breaker := retryPolicies(cfg, true)
	return &core.Env{
		Root:        cfg.Root,
		Fetcher:     f,
		MaxRequests: cfg.MaxRequests,
		Ctx:         ctx,
		Prefetch:    cfg.Prefetch,
		SharedSpec:  shared,
		Retry:       retry,
		Breaker:     breaker,
	}, nil
}

// runCrawl builds the crawler, runs it (with durable persistence when
// Config.StorePath is set), and converts the result. ns scopes the crawl's
// keys inside the store (one namespace per site identity).
func runCrawl(cfg Config, env *core.Env, sitePages int, ns string) (_ *Result, err error) {
	st, release, err := storeFor(cfg)
	if err != nil {
		return nil, err
	}
	defer closeInto(release, &err)
	if st == nil {
		res, _, err := execCrawl(cfg, env, sitePages)
		if err != nil {
			return nil, err
		}
		return convertResult(res), nil
	}
	res, stats, err := persistedRun(st, cfg, env, sitePages, ns)
	if err != nil {
		return nil, err
	}
	out := convertResult(res)
	out.Store = stats
	return out, nil
}

// persistedRun executes one crawl through an already-open store: the
// shared path of runCrawl (single crawls) and the fleet jobs (which share
// one store handle across sites).
func persistedRun(st *Store, cfg Config, env *core.Env, sitePages int, ns string) (*core.Result, *StoreStats, error) {
	pc := st.attach(env, cfg, ns)
	if cfg.Resume {
		if res, ok := pc.loadDone(); ok {
			return res, pc.stats(true), nil
		}
	}
	res, interrupted, err := execCrawl(cfg, env, sitePages)
	if err != nil {
		return nil, nil, err
	}
	// A cancelled crawl is partial: recording it as done would freeze the
	// partial result as final. Its responses are already durable, so a
	// resume re-executes to wherever it got and continues.
	if !interrupted {
		pc.finish(res)
	}
	return res, pc.stats(false), nil
}

// execCrawl builds and runs the crawler, reporting whether cancellation
// (not completion, budget, or early stop) ended the crawl.
func execCrawl(cfg Config, env *core.Env, sitePages int) (*core.Result, bool, error) {
	if len(cfg.TargetMIMEs) > 0 {
		env.TargetMIMEs = urlutil.NewMIMESet(cfg.TargetMIMEs)
	}
	if cfg.CheckpointEvery > 0 {
		env.CheckpointEvery = cfg.CheckpointEvery
	}
	// The progress observer rides the engine's checkpoint hook, wrapping
	// whatever sink persistence installed (attach runs first), so durable
	// checkpoints and in-process progress stay in lockstep.
	if cfg.Progress != nil {
		env.Checkpoint = &progressTee{next: env.Checkpoint, fn: cfg.Progress}
	}
	crawler, err := buildCrawler(cfg, sitePages)
	if err != nil {
		return nil, false, err
	}
	res, err := crawler.Run(env)
	if err != nil {
		return nil, false, err
	}
	interrupted := false
	if env.Ctx != nil {
		select {
		case <-env.Ctx.Done():
			interrupted = true
		default:
		}
	}
	return res, interrupted, nil
}

// progressTee forwards engine checkpoints to both the durable sink (when
// the store attached one) and the caller's Config.Progress observer.
type progressTee struct {
	next core.Checkpointer
	fn   func(CrawlProgress)
}

func (t *progressTee) Checkpoint(cp core.Checkpoint) {
	if t.next != nil {
		t.next.Checkpoint(cp)
	}
	t.fn(CrawlProgress{Requests: cp.Requests, Targets: cp.Targets})
}

// convertResult maps an internal crawl result onto the public type.
func convertResult(res *core.Result) *Result {
	return &Result{
		Strategy:       res.Crawler,
		Targets:        res.Targets,
		Requests:       res.Requests,
		TargetBytes:    res.TargetBytes,
		NonTargetBytes: res.NonTargetBytes,
		EarlyStopped:   res.EarlyStopped,
		Curve:          metrics.Curve(res.Trace, 500),
		Faults:         res.Faults,
	}
}

// retryPolicies maps Config.Retries onto the engine's retry and breaker
// policies. live selects real backoff sleeps; simulated crawls charge the
// backoff virtually so they stay fast and deterministic.
func retryPolicies(cfg Config, live bool) (*fetch.RetryPolicy, *fetch.BreakerPolicy) {
	if cfg.Retries < 0 {
		return nil, nil // RetriesOff: legacy single-attempt, no breaker
	}
	rp := fetch.DefaultRetryPolicy()
	if cfg.Retries > 0 {
		rp.MaxAttempts = cfg.Retries + 1
	}
	rp.Seed = cfg.Seed
	if live {
		rp.Sleep = time.Sleep
	}
	bp := fetch.DefaultBreakerPolicy()
	return &rp, &bp
}

// faultPlan compiles the Config's injected-fault schedule, or nil when no
// fault injection is requested.
func faultPlan(cfg Config) *faultsim.Plan {
	if cfg.FaultRate <= 0 && len(cfg.FaultDeadHosts) == 0 {
		return nil
	}
	seed := cfg.FaultSeed
	if seed == 0 {
		seed = cfg.Seed
	}
	return faultsim.NewPlan(faultsim.Schedule{
		Seed:      seed,
		Rate:      cfg.FaultRate,
		DeadHosts: cfg.FaultDeadHosts,
	})
}

func buildCrawler(cfg Config, sitePages int) (core.Crawler, error) {
	strategy := cfg.Strategy
	if strategy == "" {
		strategy = StrategySB
	}
	sbConfig := func(oracle bool) core.SBConfig {
		c := core.SBConfig{
			Oracle:    oracle,
			Alpha:     cfg.Alpha,
			Model:     cfg.ClassifierModel,
			BatchSize: cfg.BatchSize,
			Seed:      cfg.Seed,
			Index: core.ActionIndexConfig{
				N:     cfg.NGram,
				Theta: cfg.Theta,
			},
		}
		if cfg.EarlyStop {
			var es core.EarlyStopConfig
			if sitePages > 0 {
				es = core.ScaledEarlyStop(sitePages)
			} else {
				es = core.DefaultEarlyStop()
			}
			c.EarlyStop = &es
		}
		return c
	}
	switch strategy {
	case StrategySB:
		return core.NewSB(sbConfig(false)), nil
	case StrategySBOracle:
		return core.NewSB(sbConfig(true)), nil
	case StrategyBFS:
		return core.NewBFS(), nil
	case StrategyDFS:
		return core.NewDFS(), nil
	case StrategyRandom:
		return core.NewRandom(cfg.Seed), nil
	case StrategyFocused:
		return core.NewFocused(0), nil
	case StrategyTPOff:
		warmup := sitePages / 10
		return core.NewTPOff(warmup, cfg.Seed), nil
	case StrategyTRES:
		return core.NewTRES(0, cfg.Seed), nil
	case StrategyOmniscient:
		return core.NewOmniscient(), nil
	}
	return nil, fmt.Errorf("sbcrawl: unknown strategy %q", strategy)
}
