// Package core implements the paper's crawling framework: the shared crawl
// engine realizing Algorithm 4 (fetch, redirect handling, MIME dispatch,
// link extraction and filtering), the action index of Algorithm 1, the
// SB-CLASSIFIER / SB-ORACLE crawlers of Algorithm 3, the six baselines of
// Section 4.3 (BFS, DFS, RANDOM, OMNISCIENT, FOCUSED, TP-OFF, TRES), and the
// early-stopping rule of Section 4.8.
package core

import (
	"context"
	"fmt"

	"sbcrawl/internal/classify"
	"sbcrawl/internal/dom"
	"sbcrawl/internal/fabric"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/freelist"
	"sbcrawl/internal/urlutil"
)

// Env is everything a crawler needs to run against one website. The same
// Env drives simulated and live crawls; oracles are optional hooks the
// privileged crawlers use.
//
// An Env belongs to one running crawl at a time (its Fetcher carries
// per-crawl state such as the replay database). A fleet of concurrent
// crawls builds one Env per site; only read-only substrate — the generated
// site, its webserver, a shared fetch.Registry — may be shared across Envs.
type Env struct {
	// Root is the start URL r.
	Root string
	// Fetcher issues the HTTP traffic.
	Fetcher fetch.Fetcher
	// TargetMIMEs is the user-defined target MIME list L (defaults to the
	// paper's 38 types when nil).
	TargetMIMEs urlutil.MIMESet
	// MaxRequests is the crawl budget B in HTTP requests (0 = unlimited).
	MaxRequests int
	// Ctx, when non-nil, cancels the crawl: once done, the engine stops
	// issuing requests and the crawler winds down through the same
	// graceful path as budget exhaustion, returning its partial result.
	// Fleet orchestration uses this for mid-batch cancellation.
	Ctx context.Context
	// Prefetch, when > 0, pipelines the crawl: up to Prefetch speculative
	// fetches for the URLs the loop will likely or surely ask for next run
	// concurrently behind the engine's sequential loop, hiding fetch latency
	// inside a single site crawl. PrefetchAuto (any negative value) selects
	// the adaptive controller instead: the window for the strategy's guesses
	// at its next selections starts narrow and is widened or narrowed online
	// as their accuracy becomes visible (see fetch.AutoTuner), while what
	// the loop has already decided to fetch — SB's predicted targets of the
	// page it is ingesting, its warm-up HEAD probes and the bandit draw
	// behind them — goes out up to the tuner's ceiling, fetch.AutoMaxWindow,
	// whatever the tuned width. Either way at most that many are in flight.
	// Results are byte-identical to Prefetch == 0 for every strategy, fixed
	// and adaptive alike; speculative requests are never charged to the
	// budget. The Fetcher must be safe for concurrent Gets (all provided
	// ones are).
	Prefetch int
	// ParseWorkers sized the deleted parse-ahead stage.
	//
	// Deprecated: ignored; removed at the benchmark re-base (the frozen
	// benchmark/ names it).
	ParseWorkers int
	// Partitions multiplied the speculation window Prefetch sizes.
	//
	// Deprecated: ignored; removed at the benchmark re-base (the frozen
	// benchmark/ names it).
	Partitions int
	// Retry, when non-nil, interposes the deterministic retry layer below
	// every speculation stage: transient failures (timeouts, connection
	// resets, 429/503 answers) are re-attempted up to the policy's budget
	// with exponential seeded-jitter backoff, honoring Retry-After. With
	// faults that clear within the budget, results are byte-identical to a
	// fault-free crawl; the backoff is charged virtually (FaultStats)
	// unless the policy really sleeps. Nil runs the legacy single-attempt
	// path.
	Retry *fetch.RetryPolicy
	// Breaker, when non-nil, adds the per-host circuit breaker to the
	// demand loop: hosts whose requests keep failing after retries are
	// quarantined (further requests fast-fail a synthetic 503 without
	// network traffic) and probed half-open after a request-counted
	// cooldown. Driven only by the sequential demand loop, so quarantine
	// decisions are deterministic. Quarantined hosts surface in
	// Result.Faults.
	Breaker *fetch.BreakerPolicy
	// SharedSpec, when non-nil and the crawl is pipelined, is the
	// fleet-level shared speculation cache: speculative and demand GETs are
	// published into it and cache misses consult it before the backend, so
	// several crawls of one site reuse each other's fetches. The store must
	// only be shared by crawls seeing identical content per URL (the fleet
	// orchestrator scopes it per Site).
	SharedSpec fetch.SharedStore

	// Checkpoint, when non-nil, receives a periodic durable-progress record
	// every CheckpointEvery charged requests: budget spent, visited-set
	// size, targets and the adaptive speculation window — counters the
	// engine already holds, so a checkpoint costs the same whatever the
	// frontier's size. The persistent-store layer writes each one through
	// its segment log and syncs, so the replay database on disk is never
	// more than one interval behind the crawl. Checkpointing only observes
	// crawl state — it can never change what the crawl returns.
	Checkpoint Checkpointer
	// CheckpointEvery is the checkpoint cadence in charged requests
	// (0 → 256).
	CheckpointEvery int

	// OracleClass maps a URL to its true class (classify.Class*); used by
	// SB-ORACLE and TRES. Nil for realistic crawlers.
	OracleClass func(url string) int
	// OracleBenefit returns the number of target links on an HTML page,
	// the "true benefit" TP-OFF receives for its warm-up (Sec. 4.3).
	OracleBenefit func(url string) int
	// OracleTargets lists every target URL; only OMNISCIENT may read it.
	OracleTargets []string
}

// PrefetchAuto is the Env.Prefetch sentinel selecting the adaptive
// speculation controller (self-tuning window width).
const PrefetchAuto = -1

// DefaultCheckpointEvery is the checkpoint cadence when Env.CheckpointEvery
// is zero.
const DefaultCheckpointEvery = 256

// Checkpoint is one durable progress record of a running crawl: the
// counters the persistent store keeps current so a killed crawl reports how
// far it durably got. Nothing is restored from it — resume replays the
// durable response database, which is exact — so it holds only what has a
// reader: progress reads (Requests, Targets) and an operator's forensics.
type Checkpoint struct {
	// Requests/HeadRequests/Targets/TargetBytes/NonTargetBytes mirror the
	// crawl's charged progress at the checkpoint; Requests and Targets are
	// what Store.SiteProgress / Config.Progress report.
	Requests       int
	HeadRequests   int
	Targets        int
	TargetBytes    int64
	NonTargetBytes int64
	// Visited is |T ∪ F|, the size of the engine's seen set.
	Visited int
	// TunerWindow is the adaptive speculation window at the checkpoint
	// (0 when the width is fixed or prefetch is off).
	TunerWindow int
	// Frontier held a codec-serialized frontier snapshot that no reader
	// ever restored; it keeps its slot in the KindCheckpoint encoding, so
	// checkpoints of earlier builds (which carry a blob here) still decode.
	//
	// Deprecated: always nil; removed at the benchmark re-base (the frozen
	// benchmark/ names it).
	Frontier []byte
}

// Checkpointer receives periodic crawl checkpoints (see Env.Checkpoint).
type Checkpointer interface {
	Checkpoint(cp Checkpoint)
}

// defaultTargets is the paper's 38-type target set, built once and shared
// read-only by every crawl whose Env.TargetMIMEs is nil.
var defaultTargets = urlutil.DefaultTargetSet()

func (e *Env) targetMIMEs() urlutil.MIMESet {
	if e.TargetMIMEs != nil {
		return e.TargetMIMEs
	}
	return defaultTargets
}

// Crawler runs a crawl strategy over an Env.
type Crawler interface {
	// Name is the paper's label for the strategy (e.g. "SB-CLASSIFIER").
	Name() string
	// Run crawls until the frontier is empty, the budget is exhausted, or
	// early stopping fires.
	Run(env *Env) (*Result, error)
}

// Result is the outcome of one crawl.
type Result struct {
	Crawler        string
	Trace          *Trace
	Targets        []string
	Requests       int
	HeadRequests   int
	TargetBytes    int64
	NonTargetBytes int64
	Steps          int
	EarlyStopped   bool
	// Actions holds per-action statistics for the SB crawlers (Fig. 5,
	// Table 6); nil for baselines.
	Actions []ActionStat
	// Confusion holds the URL classifier's confusion matrix for
	// SB-CLASSIFIER; nil otherwise.
	Confusion *classify.Confusion
	// Spec snapshots the speculation outcomes of a pipelined crawl
	// (Env.Prefetch non-zero); nil for sequential crawls.
	// Wall-clock diagnostic only: the counters depend on fetch timing and
	// are deliberately kept out of the public Result, so the byte-identical
	// determinism guarantee is unaffected.
	Spec *fetch.PrefetchStats
	// ParseHits counted link extractions served by the deleted parse-ahead
	// stage; it has its slot in the stored Result encoding.
	//
	// Deprecated: always 0; removed at the benchmark re-base (the frozen
	// benchmark/ names it).
	ParseHits int
	// Fabric held a partitioned crawl's window counters; it has its slot in
	// the stored Result encoding, so a stored result that carries one still
	// decodes.
	//
	// Deprecated: the engine never sets it; removed at the benchmark
	// re-base with fabric.Stats.
	Fabric *fabric.Stats
	// Faults reports the robustness layer's activity — retries issued and
	// recovered, breaker trips, quarantined hosts, budget spent on
	// failures; nil when nothing failed (so fault-free results round-trip
	// gob unchanged). Diagnostic only, like Spec: under recoverable faults
	// the crawl outcome above is byte-identical to a fault-free run, and
	// only this block differs.
	Faults *fetch.FaultStats
}

// ActionStat summarizes one tag-path group after a crawl.
type ActionStat struct {
	ID         int
	MeanReward float64
	Selections int
	Paths      int // tag paths merged into the action
}

// Trace records the crawl's progress after every HTTP request, the raw
// series behind every figure and table of the evaluation.
type Trace struct {
	// Cumulative values indexed by request number (0-based).
	Targets        []int32
	TargetBytes    []int64
	NonTargetBytes []int64
}

// Record appends one point.
func (tr *Trace) Record(targets int, targetBytes, nonTargetBytes int64) {
	tr.Targets = append(tr.Targets, int32(targets))
	tr.TargetBytes = append(tr.TargetBytes, targetBytes)
	tr.NonTargetBytes = append(tr.NonTargetBytes, nonTargetBytes)
}

// Len returns the number of recorded requests.
func (tr *Trace) Len() int { return len(tr.Targets) }

// engine is the per-run state shared by every crawler: Algorithm 4 without
// the policy-specific link handling. Its growing tables — T ∪ F, the in-page
// set, the link stack and the normal-form scratch — come off tablesFree and
// go back to it, emptied and only while under the maxParked bounds, when
// result assembles the crawl's Result.
type engine struct {
	env            *Env
	fetcher        fetch.Fetcher     // Env.Fetcher, prefetch-wrapped when pipelining
	prefetcher     *fetch.Prefetcher // nil for a sequential crawl
	recycler       fetch.Recycler    // Env.Fetcher when it lends bodies and the crawl is sequential
	tuner          *fetch.AutoTuner  // adaptive window controller; nil unless PrefetchAuto
	window         int               // in-flight cap of policy hints, the fixed or tuned width
	ceiling        int               // in-flight cap of decided demands, the fixed width or fetch.AutoMaxWindow
	retrier        *fetch.Retrier    // deterministic retry layer; nil unless Env.Retry
	breaker        *fetch.Breaker    // per-host circuit breaker; nil unless Env.Breaker
	faultStats     fetch.FaultStats
	failedCharges  int        // charged requests whose final outcome was a failure
	links          []dom.Link // the stack every page's links live on (see extractNewLinks)
	fields         dom.Fields // the Link fields the strategy reads; all of them unless it narrows them
	admitLink      func(href string) (string, bool)
	base           urlutil.Base    // the page whose links or redirect are being resolved
	abs            []byte          // a link's normal form, before it earns a string
	inPage         map[string]bool // the current page's surviving links
	specStats      *fetch.PrefetchStats
	scope          *urlutil.Scope
	mimes          urlutil.MIMESet
	meter          fetch.Meter
	trace          *Trace
	seen           map[string]bool // T ∪ F membership
	tcount         int
	targets        []string
	targetBytes    int64
	nonTargetBytes int64
}

func newEngine(env *Env) (*engine, error) {
	scope, err := urlutil.NewScope(env.Root)
	if err != nil {
		return nil, fmt.Errorf("core: bad crawl root: %w", err)
	}
	t := takeTables()
	e := &engine{
		env:     env,
		fetcher: env.Fetcher,
		scope:   scope,
		mimes:   env.targetMIMEs(),
		trace:   &Trace{},
		seen:    t.seen,
		inPage:  t.inPage,
		links:   t.links,
		abs:     t.abs,
		fields:  dom.AllFields,
	}
	e.admitLink = e.admit
	// The retry layer sits at the bottom of the stack, directly over
	// Env.Fetcher (and thus over the replay database when persistence
	// attached one): the prefetcher and the demand loop fetch through it,
	// so the speculation window only ever holds post-retry outcomes.
	if env.Retry != nil && env.Fetcher != nil {
		e.retrier = fetch.NewRetrier(env.Fetcher, *env.Retry)
		e.fetcher = e.retrier
	}
	if env.Breaker != nil {
		e.breaker = fetch.NewBreaker(*env.Breaker)
	}
	if env.Prefetch != 0 && env.Fetcher != nil {
		e.window, e.ceiling = env.Prefetch, env.Prefetch
		if env.Prefetch < 0 { // PrefetchAuto: the tuner owns the width
			e.tuner = fetch.NewAutoTuner()
			e.window, e.ceiling = e.tuner.Window(), fetch.AutoMaxWindow
		}
		e.prefetcher = fetch.NewPrefetcher(e.fetcher, e.window)
		if env.SharedSpec != nil {
			e.prefetcher.SetShared(env.SharedSpec)
		}
		e.fetcher = e.prefetcher
	}
	// A sequential crawl hands every body it is done with back to a fetcher
	// that lends them. A pipelined one never does: the window and a fleet's
	// shared cache keep responses past the step.
	if rc, ok := env.Fetcher.(fetch.Recycler); ok && e.prefetcher == nil {
		e.recycler = rc
	}
	return e, nil
}

// engineTables are the tables every crawl grows from empty the same way: T ∪ F,
// the in-page set, the link stack and the normal-form scratch.
type engineTables struct {
	seen   map[string]bool
	inPage map[string]bool
	links  []dom.Link
	abs    []byte
}

// tablesFree parks finished crawls' tables for newEngine, so a daemon's many
// short crawls stop regrowing them from empty. A parked table is empty — its
// maps cleared, its link slots zeroed — the state a new one starts in, and
// nothing ever ranges over the two sets, so reuse changes no crawl. A crawl
// whose T ∪ F or link stack outgrew the maxParked bounds leaves its tables to
// the GC. An entry holds at most ~0.4 MB: T ∪ F ~0.22, the link stack ~0.09,
// the in-page set, which extractNewLinks holds to inPageKeep, ~0.06.
var tablesFree = freelist.New[engineTables]()

const (
	maxParkedSeen  = 1 << 12 // T ∪ F entries
	maxParkedLinks = 1 << 10 // link-stack slots, which grow with a page's new links
	maxParkedAbs   = 1 << 12 // scratch bytes, which grow with the longest link
)

// takeTables takes a parked set of tables, or makes T ∪ F for a cold crawl
// (the rest are made or grown on first use).
func takeTables() engineTables {
	if t, ok := tablesFree.Get(); ok {
		return t
	}
	return engineTables{seen: make(map[string]bool)}
}

// parkTables empties the engine's tables and parks those under the bounds;
// the engine holds none of them afterwards.
func (e *engine) parkTables() {
	t := engineTables{inPage: e.inPage}
	clear(t.inPage)
	if len(e.seen) <= maxParkedSeen {
		clear(e.seen)
		t.seen = e.seen
	}
	if cap(e.links) <= maxParkedLinks {
		clear(e.links) // popLinks has zeroed the slots past it
		t.links = e.links[:0]
	}
	if cap(e.abs) <= maxParkedAbs {
		t.abs = e.abs[:0]
	}
	e.seen, e.inPage, e.links, e.abs = nil, nil, nil, nil
	if t.seen == nil {
		return // a cold crawl would make T ∪ F anyway; nothing else is worth a slot
	}
	tablesFree.Put(t)
}

// close winds the pipeline down: after it returns, no speculative fetch is
// in flight and the underlying fetcher is quiescent (safe to reuse for the
// next sequential crawl). Idempotent; called when the crawl's result is
// assembled.
func (e *engine) close() {
	if e.prefetcher != nil {
		e.prefetcher.Close()
		st := e.prefetcher.Stats()
		e.specStats = &st
		e.prefetcher = nil
		e.tuner = nil
		e.fetcher = e.env.Fetcher
	}
	if e.retrier != nil {
		e.faultStats.Add(e.retrier.Stats())
		e.retrier = nil
		e.fetcher = e.env.Fetcher
	}
	if e.breaker != nil {
		e.faultStats.Add(e.breaker.Stats())
		e.breaker = nil
	}
	e.faultStats.FailedRequests = e.failedCharges
}

// budgetLeft reports whether another request may be issued: the budget has
// room and the crawl's context (if any) is still live.
func (e *engine) budgetLeft() bool {
	if e.env.Ctx != nil {
		select {
		case <-e.env.Ctx.Done():
			return false
		default:
		}
	}
	return e.env.MaxRequests <= 0 || e.meter.Requests < e.env.MaxRequests
}

// get issues one charged GET and records the trace point. ok=false when the
// budget is exhausted (no request is made).
func (e *engine) get(u string) (fetch.Response, bool) {
	if !e.budgetLeft() {
		return fetch.Response{}, false
	}
	resp, failed := e.demand(u, false)
	vol := e.meter.ChargeGet(resp)
	if failed {
		e.failedCharges++
	}
	if resp.Status == 200 && e.mimes.Contains(resp.MIME) {
		e.targetBytes += vol
	} else {
		e.nonTargetBytes += vol
	}
	e.record()
	e.maybeCheckpoint()
	return resp, true
}

// record appends the trace point of the request just charged. A budgeted
// crawl's first point allocates the three series once, for
// min(MaxRequests, traceReserve) points, instead of growing them by doubling;
// a crawl that charges nothing keeps them nil.
func (e *engine) record() {
	tr := e.trace
	if tr.Targets == nil && e.env.MaxRequests > 0 {
		n := min(e.env.MaxRequests, traceReserve)
		tr.Targets = make([]int32, 0, n)
		tr.TargetBytes = make([]int64, 0, n)
		tr.NonTargetBytes = make([]int64, 0, n)
	}
	tr.Record(e.tcount, e.targetBytes, e.nonTargetBytes)
}

// traceReserve caps the points a budgeted crawl's trace allocates up front,
// so a site exhausted long before its budget wastes at most this many.
const traceReserve = 1 << 12

// head issues one charged HEAD (classifier initial phase / TP-OFF probing).
func (e *engine) head(u string) (fetch.Response, bool) {
	if !e.budgetLeft() {
		return fetch.Response{}, false
	}
	resp, failed := e.demand(u, true)
	if failed {
		e.failedCharges++
	}
	e.nonTargetBytes += e.meter.ChargeHead()
	e.record()
	e.maybeCheckpoint()
	return resp, true
}

// demand issues one demand-path exchange (the retry layer below has
// already spent its attempts when it answers), consulting and feeding the
// circuit breaker, and maps any surviving error onto the typed taxonomy's
// synthetic response: policy refusals charge 451, exhausted transient
// failures charge 503, anything unclassified keeps the historical 599.
// failed reports a final failure — the charge bought no usable answer.
func (e *engine) demand(u string, head bool) (resp fetch.Response, failed bool) {
	if e.breaker != nil && !e.breaker.Allow(u) {
		// Fast-fail: the host is quarantined; charge the demand without
		// touching the network. Allow already counted the fast-fail.
		return fetch.Response{URL: u, Status: fetch.StatusSyntheticUnavailable}, true
	}
	var err error
	if head {
		resp, err = e.fetcher.Head(u)
	} else {
		resp, err = e.fetcher.Get(u)
	}
	// Host health: transient-class outcomes are failures; real answers
	// (404s and 500s included) and policy refusals are not.
	if e.breaker != nil {
		e.breaker.Observe(u, fetch.TransientResult(resp, err))
	}
	failed = err != nil || fetch.RetryableStatus(resp.Status)
	if err != nil {
		resp = fetch.SyntheticResponse(u, err)
	}
	return resp, failed
}

// maybeCheckpoint emits a durable progress record every CheckpointEvery
// charged requests. Purely observational: it reads crawl state, never
// writes it, so checkpointing cannot perturb results.
func (e *engine) maybeCheckpoint() {
	sink := e.env.Checkpoint
	if sink == nil {
		return
	}
	every := e.env.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	if e.meter.Requests%every != 0 {
		return
	}
	cp := Checkpoint{
		Requests:       e.meter.Requests,
		HeadRequests:   e.meter.HeadRequests,
		Targets:        e.tcount,
		TargetBytes:    e.targetBytes,
		NonTargetBytes: e.nonTargetBytes,
		Visited:        len(e.seen),
	}
	if e.tuner != nil {
		cp.TunerWindow = e.tuner.Window()
	}
	sink.Checkpoint(cp)
}

// page is the processed outcome of crawling one URL (redirects resolved).
type page struct {
	FinalURL string
	Status   int
	MIME     string
	IsHTML   bool
	IsTarget bool
	// Links are the new, in-scope, non-blocklisted links of an HTML page,
	// in document order, with absolute URLs.
	Links []dom.Link
	// Truncated reports a budget-exhausted fetch (the page result is
	// meaningless).
	Truncated bool
}

// fetchPage realizes the request-handling core of Algorithm 4: it GETs the
// URL, follows unvisited redirects (charging every hop), classifies the
// final response, extracts and filters links from HTML, and accounts
// retrieved targets.
func (e *engine) fetchPage(u string) page {
	const maxHops = 8
	cur := u
	for hops := 0; hops <= maxHops; hops++ {
		e.seen[cur] = true
		resp, ok := e.get(cur)
		if !ok {
			return page{Truncated: true}
		}
		p, next := e.hop(cur, resp)
		// The body's one reader is done: the page keeps only strings that
		// dom and urlutil materialized.
		if e.recycler != nil {
			e.recycler.Recycle(resp.Body)
		}
		if next == "" {
			return p
		}
		cur = next
	}
	return page{FinalURL: cur, Status: 310} // redirect loop exhausted
}

// hop handles one response of fetchPage: the processed page, or the
// redirect target to fetch next.
func (e *engine) hop(cur string, resp fetch.Response) (p page, next string) {
	switch {
	case resp.Status >= 300 && resp.Status < 400:
		e.base.Reset(cur)
		if !e.resolve(resp.Location) || e.seen[string(e.abs)] {
			return page{FinalURL: cur, Status: resp.Status}, ""
		}
		if loc := urlutil.String(e.abs, resp.Location); e.scope.Contains(loc) {
			return page{}, loc
		}
		return page{FinalURL: cur, Status: resp.Status}, ""
	case resp.Status >= 200 && resp.Status < 300:
		return e.processSuccess(cur, resp), ""
	default:
		// 4xx/5xx: no links, no targets (Algorithm 4 returns).
		return page{FinalURL: cur, Status: resp.Status}, ""
	}
}

func (e *engine) processSuccess(u string, resp fetch.Response) page {
	p := page{FinalURL: u, Status: resp.Status, MIME: resp.MIME}
	switch {
	case resp.Interrupted:
		// Banned-MIME download was cut; nothing else to do.
	case urlutil.IsHTML(resp.MIME):
		p.IsHTML = true
		p.Links = e.extractNewLinks(u, resp.Body)
	case e.mimes.Contains(resp.MIME):
		p.IsTarget = true
		e.tcount++
		e.targets = append(e.targets, u)
		// Re-stamp the trace point now that the target is counted, so the
		// curve shows the target at the request that fetched it.
		if n := e.trace.Len(); n > 0 {
			e.trace.Targets[n-1] = int32(e.tcount)
		}
	}
	return p
}

// extractNewLinks parses the page body and returns its links after the
// Algorithm 4 filters: same-website scope, not already in T ∪ F, extension
// not blocklisted. URLs are normalized to absolute form and deduplicated in
// document order; of the other Link fields, only those the strategy reads
// (e.fields) are built, and only for links that pass.
//
// The links are pushed onto the engine's link stack; the result is a
// capacity-capped view of that tail, valid until the stack is popped below it
// (popLinks). A nested fetch while the page is being ingested pushes past the
// view, and when its append reallocates the stack the view stays on the old
// array, which nothing writes any more.
func (e *engine) extractNewLinks(pageURL string, body []byte) []dom.Link {
	e.base.Reset(pageURL)
	if e.inPage == nil {
		e.inPage = make(map[string]bool)
	}
	start := len(e.links)
	e.links = dom.ExtractLinksFiltered(e.links, body, e.fields, e.admitLink)
	// clear() costs the set's capacity, so a hub page's set is dropped
	// rather than cleared for every page after it.
	if len(e.inPage) > inPageKeep {
		e.inPage = nil
	} else {
		clear(e.inPage)
	}
	return e.links[start:len(e.links):len(e.links)]
}

// inPageKeep is the largest in-page set extractNewLinks clears for reuse.
const inPageKeep = 1024

// admit is extractNewLinks' filter, which dom calls at each link element
// before it builds anything else of the link. The href is normalized into
// e.abs and looked up in the in-page set and T ∪ F there, so a link dropped
// as known costs no string; a new one gets its URL string (the href itself
// when that is already normal) and then meets the scope and blocklist.
// newEngine binds it once, as e.admitLink: a method value made per page
// would allocate.
func (e *engine) admit(href string) (string, bool) {
	if !e.resolve(href) || e.inPage[string(e.abs)] || e.seen[string(e.abs)] {
		return "", false
	}
	abs := urlutil.String(e.abs, href)
	if !e.scope.Admit(abs) {
		return "", false
	}
	e.inPage[abs] = true
	return abs, true
}

// resolve normalizes ref against e.base into e.abs, reporting false for a
// URL Normalize would turn into "".
func (e *engine) resolve(ref string) bool {
	var ok bool
	e.abs, ok = e.base.AppendNormalize(e.abs[:0], ref)
	return ok
}

// popLinks drops the link stack back to mark, the height it had before the
// fetches whose pages are now ingested.
func (e *engine) popLinks(mark int) {
	clear(e.links[mark:])
	e.links = e.links[:mark]
}

// result assembles the shared part of a Result, winding down the prefetch
// pipeline first so no speculative fetch outlives the crawl, and parks the
// engine's tables (parkTables): the engine maps no link after it.
func (e *engine) result(name string, steps int) *Result {
	e.close()
	e.parkTables()
	r := &Result{
		Crawler:        name,
		Trace:          e.trace,
		Targets:        e.targets,
		Requests:       e.meter.Requests,
		HeadRequests:   e.meter.HeadRequests,
		TargetBytes:    e.targetBytes,
		NonTargetBytes: e.nonTargetBytes,
		Steps:          steps,
		Spec:           e.specStats,
	}
	// Attach fault stats only when something actually failed: a gob
	// round trip turns a pointer-to-zero-struct into nil, so an
	// always-present empty block would break resume equivalence.
	if !e.faultStats.Zero() {
		fs := e.faultStats
		r.Faults = &fs
	}
	return r
}
