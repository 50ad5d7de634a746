package experiments

import (
	"fmt"

	"sbcrawl/internal/core"
	"sbcrawl/internal/faultsim"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/webserver"
)

// ResilienceRates is the fault-rate sweep of the resilience table: fault-free
// baseline, then 1%, 5%, and 20% of URLs failing transiently before recovery.
var ResilienceRates = []float64{0, 0.01, 0.05, 0.20}

// RunResilience reports crawl yield under injected transient faults, for the
// full Section 4.3 strategy lineup, across fault rates, with the retry layer
// on versus off. It is the robustness counterpart of Table 2: with retries
// on, every recovered fault is invisible to the strategy (the table shows
// recall pinned to the fault-free baseline), while with retries off each
// faulted URL is permanently lost and recall decays with the rate.
//
// Every cell crawls through a fresh fault plan seeded from (cfg.Seed, rate),
// so cells never share attempt counters and the whole table is reproducible
// from the seed.
func RunResilience(cfg Config) error {
	cfg = cfg.withDefaults()
	codes := sitesOrDefault(cfg, []string{"cl", "cn"})

	type row struct {
		crawler string
		rate    float64
		retry   bool
		recall  float64
		reqs    int
		faults  fetch.FaultStats
	}
	type siteRows struct {
		code string
		rows []row
	}
	results, err := forEachSite(cfg, codes, func(code string) (siteRows, error) {
		se, err := buildSite(cfg, code)
		if err != nil {
			return siteRows{}, err
		}
		targets := len(se.env.OracleTargets)
		out := siteRows{code: code}
		for _, rate := range ResilienceRates {
			for _, retry := range []bool{false, true} {
				if rate == 0 && !retry {
					// The fault-free no-retry cell is the plain Table 2
					// baseline; one fault-free row (with retries armed but
					// idle) is enough.
					continue
				}
				for _, c := range crawlerSet(cfg, se, 0) {
					env := faultEnv(se, cfg, rate, retry)
					res, err := c.Run(env)
					if err != nil {
						return siteRows{}, fmt.Errorf("%s on %s (rate %g): %w", c.Name(), code, rate, err)
					}
					r := row{crawler: c.Name(), rate: rate, retry: retry, reqs: res.Requests}
					if targets > 0 {
						r.recall = 100 * float64(len(res.Targets)) / float64(targets)
					}
					if res.Faults != nil {
						r.faults = *res.Faults
					}
					out.rows = append(out.rows, r)
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(cfg.Out, "Resilience: recall under injected transient faults (retry budget %d attempts)\n",
		fetch.DefaultRetryPolicy().MaxAttempts)
	fmt.Fprintf(cfg.Out, "%-5s %-14s %6s %6s %8s %9s %8s %9s %7s\n",
		"site", "crawler", "rate", "retry", "recall%", "requests", "retries", "exhausted", "failed")
	for _, sr := range results {
		for _, r := range sr.rows {
			onOff := "off"
			if r.retry {
				onOff = "on"
			}
			fmt.Fprintf(cfg.Out, "%-5s %-14s %5.0f%% %6s %7.1f%% %9d %8d %9d %7d\n",
				sr.code, r.crawler, 100*r.rate, onOff, r.recall, r.reqs,
				r.faults.Retries, r.faults.Exhausted, r.faults.FailedRequests)
		}
	}
	return nil
}

// faultEnv clones a site's crawl Env for one resilience cell: a fresh
// simulated fetcher behind a fresh fault plan (attempt counters never leak
// between cells) and the retry/breaker layer armed or disarmed.
func faultEnv(se *siteEnv, cfg Config, rate float64, retry bool) *core.Env {
	env := *se.env
	var fetcher fetch.Fetcher = fetch.NewSim(webserver.New(se.site))
	if rate > 0 {
		plan := faultsim.NewPlan(faultsim.Schedule{Seed: cfg.Seed, Rate: rate})
		fetcher = fetch.NewFaultInjector(fetcher, plan)
	}
	env.Fetcher = fetcher
	env.Retry, env.Breaker = nil, nil
	if retry {
		rp := fetch.DefaultRetryPolicy()
		rp.Seed = cfg.Seed
		bp := fetch.DefaultBreakerPolicy()
		env.Retry, env.Breaker = &rp, &bp
	}
	return &env
}
