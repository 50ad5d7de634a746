package experiments

import (
	"fmt"

	"sbcrawl/internal/core"
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
	codes := sitesOrDefault(cfg, []string{"cl", "cn"})

	type row struct {
		crawler  string
		requests int
		spec     fetch.PrefetchStats
	}
	results, err := forEachSite(cfg, codes, func(code string) ([]row, error) {
		se, err := buildSite(cfg, code)
		if err != nil {
			return nil, err
		}
		// The site env under the adaptive window, the mode this report
		// exists to observe: a sequential engine speculates nothing.
		env := *se.env
		env.Prefetch = core.PrefetchAuto
		var rows []row
		for _, c := range []core.Crawler{
			core.NewSB(core.SBConfig{Seed: cfg.Seed}),
			core.NewBFS(),
			core.NewRandom(cfg.Seed),
		} {
			res, err := c.Run(&env)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", c.Name(), code, err)
			}
			if res.Spec != nil {
				rows = append(rows, row{c.Name(), res.Requests, *res.Spec})
			}
		}
		return rows, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(cfg.Out, "Speculation outcomes (window: auto (adaptive); diagnostic, timing-dependent)\n")
	fmt.Fprintf(cfg.Out, "%-5s %-14s %9s %9s %6s %6s %7s %9s %6s\n",
		"site", "crawler", "requests", "launched", "hits", "miss", "evict", "headhits", "hit%")
	for i, rows := range results {
		for _, r := range rows {
			sp := r.spec
			fmt.Fprintf(cfg.Out, "%-5s %-14s %9d %9d %6d %6d %7d %9d %5.1f%%\n",
				codes[i], r.crawler, r.requests, sp.Launched, sp.Hits, sp.Misses,
				sp.Evicted, sp.HeadHits, 100*sp.HitRate())
		}
	}
	return nil
}
