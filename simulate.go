package sbcrawl

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"sbcrawl/internal/core"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/sitegen"
	"sbcrawl/internal/webserver"
)

// Site is a deterministic synthetic website mirroring one of the paper's 18
// evaluation websites (see SiteCodes). It can be crawled in memory through
// CrawlSite, or served over real HTTP via Handler. A Site is immutable
// after GenerateSite and safe to share between concurrent crawls.
type Site struct {
	site   *sitegen.Site
	server *webserver.Server
	// fed is set instead of site/server for a multi-host federation
	// (GenerateFederation): several member sites behind one portal.
	fed *webserver.Federation
	// Generation parameters, recorded so the persistent store can scope
	// its keys to this exact site: the same (code, scale, seed) triple
	// regenerates identical content, any other triple is a different site.
	code  string
	scale float64
	seed  int64
	// pages caches PageCount: counting walks the site's whole link graph,
	// every crawl asks, and a generated site never changes.
	pagesOnce sync.Once
	pages     int
}

// SiteCodes lists the available site profiles (Table 1 of the paper):
// ab, as, be, ce, cl, cn, ed, il, in, is, jp, ju, nc, oe, ok, qa, wh, wo.
func SiteCodes() []string {
	out := make([]string, 0, len(sitegen.Profiles))
	for _, p := range sitegen.Profiles {
		out = append(out, p.Code)
	}
	return out
}

// GenerateSite builds the synthetic website for one of the paper's site
// codes. scale multiplies the real site's page count (e.g. 0.01 turns the
// 56k-page justice.gouv.fr profile into ~566 pages); seed fixes all
// randomness.
func GenerateSite(code string, scale float64, seed int64) (*Site, error) {
	profile, ok := sitegen.ProfileByCode(code)
	if !ok {
		return nil, fmt.Errorf("sbcrawl: unknown site code %q (see SiteCodes)", code)
	}
	site := sitegen.Generate(sitegen.Config{Profile: profile, Scale: scale, Seed: seed})
	return &Site{site: site, server: webserver.New(site), code: code, scale: scale, seed: seed}, nil
}

// GenerateFederation builds a multi-host website: one member site per code
// (each at scale, with per-member seeds derived from seed) mounted as
// subdomains of federation.test behind a portal page, with deterministic
// cross-host links between members. A federation crawls exactly like a
// single Site (same determinism, store, and resume guarantees); its hosts
// spread over Result.Fabric.PartitionFetches under Config.Partitions.
func GenerateFederation(codes []string, scale float64, seed int64) (*Site, error) {
	if len(codes) == 0 {
		return nil, fmt.Errorf("sbcrawl: federation needs at least one site code")
	}
	members := make([]*sitegen.Site, 0, len(codes))
	for i, code := range codes {
		profile, ok := sitegen.ProfileByCode(code)
		if !ok {
			return nil, fmt.Errorf("sbcrawl: unknown site code %q (see SiteCodes)", code)
		}
		members = append(members, sitegen.Generate(sitegen.Config{
			Profile: profile, Scale: scale, Seed: seed + int64(i)*1000003,
		}))
	}
	fed := webserver.NewFederation("federation.test", members)
	return &Site{
		fed:  fed,
		code: "fed:" + strings.Join(codes, "+"), scale: scale, seed: seed,
	}, nil
}

// Root returns the site's start URL (a federation's portal).
func (s *Site) Root() string {
	if s.fed != nil {
		return s.fed.Root()
	}
	return s.site.Root()
}

// Code returns the site's profile code (a federation returns
// "fed:<code>+<code>+…").
func (s *Site) Code() string {
	if s.fed != nil {
		return s.code
	}
	return s.site.Profile.Code
}

// Name returns the mirrored organization's name.
func (s *Site) Name() string {
	if s.fed != nil {
		return s.fed.String()
	}
	return s.site.Profile.Name
}

// TargetCount returns the number of target files the site holds — the
// ground truth a crawl's recall is judged against.
func (s *Site) TargetCount() int {
	if s.fed != nil {
		return len(s.fed.TargetURLs())
	}
	return len(s.site.TargetURLs())
}

// PageCount returns the number of available (2xx) pages.
func (s *Site) PageCount() int {
	if s.fed != nil {
		return s.fed.PageCount()
	}
	s.pagesOnce.Do(func() { s.pages = s.site.ComputeStats().Available })
	return s.pages
}

// Handler serves the site over HTTP, for crawling through the live network
// stack (see examples/live_http). Federations are in-memory only.
func (s *Site) Handler() http.Handler {
	if s.fed != nil {
		return http.NotFoundHandler()
	}
	return s.server.Handler()
}

// lookup resolves a URL against the site's ground truth, branching between
// the single-server and federation backends.
func (s *Site) lookup(u string) (*sitegen.Page, bool) {
	if s.fed != nil {
		return s.fed.Lookup(u)
	}
	return s.site.Lookup(u)
}

// targetURLs lists the ground-truth targets in crawlable form.
func (s *Site) targetURLs() []string {
	if s.fed != nil {
		return s.fed.TargetURLs()
	}
	return s.site.TargetURLs()
}

// CrawlSite runs any strategy against a simulated site, in memory, with all
// ground truth wired for the oracle strategies. cfg.Root is ignored.
func CrawlSite(site *Site, cfg Config) (*Result, error) {
	return CrawlSiteCtx(nil, site, cfg)
}

// CrawlSiteCtx is CrawlSite with a cancellation context: a cancelled ctx
// stops the crawl at its next request — interrupting simulated round-trip
// waits promptly — and returns the partial Result. With a store attached
// the interrupted prefix is durable and the same Config resumes
// deterministically. A nil ctx never cancels.
func CrawlSiteCtx(ctx context.Context, site *Site, cfg Config) (*Result, error) {
	return runCrawl(cfg, siteCrawlEnv(site, cfg, ctx), site.PageCount(), simNamespace(site))
}

// siteCrawlEnv wires a fresh crawl Env over a simulated site: its own
// fetcher (optionally latency-wrapped) plus the oracle hooks. Each call
// returns an independent Env, so any number may crawl the same Site
// concurrently. A non-nil ctx cancels the crawl and interrupts simulated
// round-trip waits promptly.
func siteCrawlEnv(site *Site, cfg Config, ctx context.Context) *core.Env {
	var backend fetch.SimBackend = site.server
	if site.fed != nil {
		backend = site.fed
	}
	var fetcher fetch.Fetcher = fetch.NewSim(backend)
	// Transport-side faults: the Config's injected-fault schedule wraps the
	// fetcher, so resets/timeouts/503s appear below the retry layer.
	if plan := faultPlan(cfg); plan != nil {
		fetcher = fetch.NewFaultInjector(fetcher, plan)
	}
	if cfg.SimLatency > 0 {
		fetcher = &fetch.Latency{Backend: fetcher, Delay: cfg.SimLatency, Ctx: ctx}
	}
	retry, breaker := retryPolicies(cfg, false)
	class, benefit := sitegen.Oracles(site.lookup)
	// The ground-truth target list is a scan of every page of the site, and
	// OMNISCIENT is its only reader.
	var oracleTargets []string
	if cfg.Strategy == StrategyOmniscient {
		oracleTargets = site.targetURLs()
	}
	return &core.Env{
		Root:          site.Root(),
		Fetcher:       fetcher,
		MaxRequests:   cfg.MaxRequests,
		Ctx:           ctx,
		Prefetch:      cfg.Prefetch,
		Retry:         retry,
		Breaker:       breaker,
		OracleClass:   class,
		OracleBenefit: benefit,
		OracleTargets: oracleTargets,
	}
}
