package experiments

import (
	"fmt"

	"sbcrawl/internal/core"
	"sbcrawl/internal/fabric"
	"sbcrawl/internal/fetch"
)

// RunSpeculation reports the pipelined engine's speculation outcomes per
// site and strategy: speculative fetches launched, demand requests answered
// from speculation (hits) versus the backend (misses), speculation dropped
// unconsumed (evicted), HEAD probes served speculatively, and the resulting
// hit rate. It is the observability side of the adaptive prefetch window —
// the same counters the AutoTuner steers by — and the report crawlbench's
// -stats flag appends.
//
// Unlike the paper-artifact experiments, the numbers are wall-clock
// diagnostics: how much speculation landed depends on fetch timing, so
// they vary run to run while the crawls' results do not.
func RunSpeculation(cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.Prefetch == 0 {
		// A sequential engine has nothing to report; default to the
		// adaptive window, the mode this report exists to observe.
		cfg.Prefetch = core.PrefetchAuto
	}
	codes := sitesOrDefault(cfg, []string{"cl", "cn"})

	type row struct {
		crawler  string
		requests int
		spec     fetch.PrefetchStats
		fab      *fabric.Stats
		faults   *fetch.FaultStats
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
		out := siteRows{code: code}
		crawlers := []core.Crawler{
			core.NewSB(core.SBConfig{Seed: cfg.Seed}),
			core.NewBFS(),
			core.NewRandom(cfg.Seed),
		}
		for _, c := range crawlers {
			// Faulted runs get a fresh injector-backed env per crawler:
			// the shared site env's replay cache was warmed fault-free by
			// the reference crawl, so faults would never fire through it,
			// and fresh fault plans keep attempt counters from leaking
			// between crawlers.
			env := se.env
			if cfg.FaultRate > 0 {
				env = faultEnv(se, cfg, cfg.FaultRate, cfg.Retries >= 0)
			}
			res, err := c.Run(env)
			if err != nil {
				return siteRows{}, fmt.Errorf("%s on %s: %w", c.Name(), code, err)
			}
			if res.Spec == nil && res.Faults == nil {
				continue
			}
			r := row{crawler: c.Name(), requests: res.Requests, fab: res.Fabric, faults: res.Faults}
			if res.Spec != nil {
				r.spec = *res.Spec
			}
			out.rows = append(out.rows, r)
		}
		return out, nil
	})
	if err != nil {
		return err
	}

	mode := fmt.Sprintf("fixed %d", cfg.Prefetch)
	if cfg.Prefetch < 0 {
		mode = "auto (adaptive)"
	}
	if cfg.Partitions != 0 {
		mode += fmt.Sprintf(" × %d partitions", fabric.Resolve(cfg.Partitions))
	}
	fmt.Fprintf(cfg.Out, "Speculation outcomes (window: %s; diagnostic, timing-dependent)\n", mode)
	fmt.Fprintf(cfg.Out, "%-5s %-14s %9s %9s %6s %6s %7s %9s %6s\n",
		"site", "crawler", "requests", "launched", "hits", "miss", "evict", "headhits", "hit%")
	for _, sr := range results {
		for _, r := range sr.rows {
			sp := r.spec
			fmt.Fprintf(cfg.Out, "%-5s %-14s %9d %9d %6d %6d %7d %9d %5.1f%%\n",
				sr.code, r.crawler, r.requests, sp.Launched, sp.Hits, sp.Misses,
				sp.Evicted, sp.HeadHits, 100*sp.HitRate())
		}
	}
	anyFaults := false
	for _, sr := range results {
		for _, r := range sr.rows {
			if r.faults != nil {
				anyFaults = true
			}
		}
	}
	if anyFaults {
		fmt.Fprintf(cfg.Out, "\nFault handling (retry/backoff/breaker activity)\n")
		fmt.Fprintf(cfg.Out, "%-5s %-14s %8s %9s %9s %7s %6s %9s  %s\n",
			"site", "crawler", "retries", "recovered", "exhausted", "failed", "trips", "fastfails", "quarantined")
		for _, sr := range results {
			for _, r := range sr.rows {
				if r.faults == nil {
					continue
				}
				fs := r.faults
				fmt.Fprintf(cfg.Out, "%-5s %-14s %8d %9d %9d %7d %6d %9d  %v\n",
					sr.code, r.crawler, fs.Retries, fs.RetrySuccesses, fs.Exhausted,
					fs.FailedRequests, fs.BreakerTrips, fs.BreakerFastFails, fs.QuarantinedHosts)
			}
		}
	}
	if cfg.Partitions != 0 {
		fmt.Fprintf(cfg.Out, "\nPartitioned window (diagnostic, timing-dependent)\n")
		fmt.Fprintf(cfg.Out, "%-5s %-14s %7s %7s  %s\n",
			"site", "crawler", "dmhits", "dmmiss", "launches by owning partition")
		for _, sr := range results {
			for _, r := range sr.rows {
				if r.fab == nil {
					continue
				}
				fb := r.fab
				fmt.Fprintf(cfg.Out, "%-5s %-14s %7d %7d  %v\n",
					sr.code, r.crawler, fb.DemandHits, fb.DemandMisses, fb.PartitionFetches)
			}
		}
	}
	return nil
}
