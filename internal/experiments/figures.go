package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"sbcrawl/internal/bandit"
	"sbcrawl/internal/core"
	"sbcrawl/internal/metrics"
	"sbcrawl/internal/sitegen"
)

// RunFigure4 regenerates the crawler-performance curves of Figures 4 and 7:
// for every site and crawler, the targets-vs-requests and
// target-volume-vs-non-target-volume series. With CSVDir set, one CSV per
// site is written; the report always prints a compact quartile summary.
func RunFigure4(cfg Config) error {
	cfg = cfg.withDefaults()
	sites := sitesOrDefault(cfg, sitegen.Figure4Codes)
	// Each site's work renders its whole report block (and writes its CSV,
	// a per-site file) before returning, so only the final strings are
	// retained across the fan-out — not the sites, caches, or traces.
	blocks, err := forEachSite(cfg, sites, func(code string) (string, error) {
		se, err := buildSite(cfg, code)
		if err != nil {
			return "", err
		}
		cells, err := runMatrix(cfg, se)
		if err != nil {
			return "", err
		}
		if cfg.CSVDir != "" {
			if err := writeCurveCSV(cfg, code, cells); err != nil {
				return "", err
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Figure 4 — %s (%d available pages, %d targets)\n",
			code, se.totals.AvailablePages, se.totals.Targets)
		fmt.Fprintf(&b, "%-14s %22s %22s\n", "crawler",
			"targets @ 25/50/100% req", "tgtGB|ntGB @ end")
		for _, name := range CrawlerOrder {
			cell, ok := cells[name]
			if !ok {
				continue
			}
			tr := cell.Result.Trace
			n := tr.Len()
			if n == 0 {
				continue
			}
			q := func(f float64) int32 {
				i := int(f * float64(n))
				if i >= n {
					i = n - 1
				}
				return tr.Targets[i]
			}
			fmt.Fprintf(&b, "%-14s %7d/%6d/%6d %12.3f|%.3f\n",
				name, q(0.25), q(0.5), q(0.9999),
				float64(tr.TargetBytes[n-1])/1e9, float64(tr.NonTargetBytes[n-1])/1e9)
		}
		fmt.Fprintln(&b)
		return b.String(), nil
	})
	if err != nil {
		return err
	}
	for _, block := range blocks {
		fmt.Fprint(cfg.Out, block)
	}
	return nil
}

func writeCurveCSV(cfg Config, code string, cells map[string]*matrixCell) error {
	if err := os.MkdirAll(cfg.CSVDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.CSVDir, "fig4_"+code+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "crawler,requests,targets,target_bytes,nontarget_bytes")
	for _, name := range sortedKeys(cells) {
		for _, pt := range metrics.Curve(cells[name].Result.Trace, 200) {
			fmt.Fprintf(f, "%s,%d,%d,%d,%d\n",
				name, pt.Requests, pt.Targets, pt.TargetBytes, pt.NonTargetBytes)
		}
	}
	return nil
}

// RunFigure5 regenerates Figure 5: the mean reward of the top-10 tag-path
// groups for the ten selected sites (log-scale in the paper; raw values
// here).
func RunFigure5(cfg Config) error {
	cfg = cfg.withDefaults()
	sites := sitesOrDefault(cfg, sitegen.Figure4Codes)
	fmt.Fprintf(cfg.Out, "Figure 5 — mean rewards of the top-10 tag-path groups\n")
	fmt.Fprintf(cfg.Out, "%-4s %s\n", "site", "top-10 group mean rewards (desc)")
	stats, err := rewardStats(cfg, sites)
	if err != nil {
		return err
	}
	for i, code := range sites {
		st := stats[i]
		cells := make([]string, len(st.Top))
		for i, v := range st.Top {
			cells[i] = fmt.Sprintf("%.1f", v)
		}
		fmt.Fprintf(cfg.Out, "%-4s %s  (site mean %.2f ± %.2f)\n",
			code, strings.Join(cells, " "), st.Mean, st.Std)
	}
	return nil
}

// RunFigure15 regenerates Figure 15: the early-stopping cut on the sites in
// and ju — the target curve together with the step the rule fired at.
func RunFigure15(cfg Config) error {
	cfg = cfg.withDefaults()
	sites := sitesOrDefault(cfg, []string{"in", "ju"})
	blocks, err := forEachSite(cfg, sites, func(code string) (string, error) {
		se, err := buildSite(cfg, code)
		if err != nil {
			return "", err
		}
		es := core.ScaledEarlyStop(se.stats.Available)
		res, err := core.NewSB(core.SBConfig{Seed: cfg.Seed, EarlyStop: &es}).Run(se.env)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Figure 15 — %s: early stop fired=%v after %d requests (%d/%d targets)\n",
			code, res.EarlyStopped, res.Requests, len(res.Targets), se.totals.Targets)
		for _, pt := range metrics.Curve(res.Trace, 20) {
			fmt.Fprintf(&b, "  req %6d  targets %6d\n", pt.Requests, pt.Targets)
		}
		return b.String(), nil
	})
	if err != nil {
		return err
	}
	for _, block := range blocks {
		fmt.Fprint(cfg.Out, block)
	}
	return nil
}

// RunSearchEngines reproduces the Section 4.2 finding on simulated search
// engines: an SE index covers an opaque, capped subset of a site's targets
// (real SEs returned 302 of 9k+ PDFs on ju, 641 of 49k files on il), while
// the crawler retrieves them all. The simulated SE indexes a random slice of
// targets, caps results at 1k, and hides its selection criteria.
func RunSearchEngines(cfg Config) error {
	cfg = cfg.withDefaults()
	sites := sitesOrDefault(cfg, []string{"ju", "il", "in"})
	fmt.Fprintf(cfg.Out, "Search engines vs focused crawl (Sec. 4.2)\n")
	fmt.Fprintf(cfg.Out, "%-4s %9s %10s %10s %10s\n", "site", "#targets", "GS", "GDS", "crawler")
	rows, err := forEachSite(cfg, sites, func(code string) (string, error) {
		se, err := buildSite(cfg, code)
		if err != nil {
			return "", err
		}
		targets := se.site.TargetURLs()
		gs := simulatedSEIndex(targets, 0.30, 1000, cfg.Seed)    // classic search
		gds := simulatedSEIndex(targets, 0.08, 1000, cfg.Seed+1) // dataset search
		res, err := core.NewSB(core.SBConfig{Seed: cfg.Seed}).Run(se.env)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%-4s %9d %10d %10d %10d\n",
			code, len(targets), gs, gds, len(res.Targets)), nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprint(cfg.Out, row)
	}
	return nil
}

// simulatedSEIndex models a search engine's partial, capped index: it covers
// an opaque fraction of the targets and truncates results at the cap.
func simulatedSEIndex(targets []string, coverage float64, cap int, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for range targets {
		if rng.Float64() < coverage {
			n++
		}
	}
	if n > cap {
		n = cap
	}
	return n
}

// RunAblationPolicy compares the AUER sleeping bandit against UCB1,
// ε-greedy, and Thompson sampling (extended-version Appendix C discussion).
func RunAblationPolicy(cfg Config) error {
	cfg = cfg.withDefaults()
	policies := []func(seed int64) bandit.Policy{
		func(int64) bandit.Policy { return bandit.NewSleeping() },
		func(int64) bandit.Policy { return bandit.NewUCB1() },
		func(seed int64) bandit.Policy { return bandit.NewEpsilonGreedy(0.1, seed) },
		func(seed int64) bandit.Policy { return bandit.NewThompson(2, seed) },
	}
	return sweep(cfg, sitesOrDefault(cfg, []string{"nc", "wo", "ju"}),
		"Ablation — bandit policy (SB-ORACLE, req% to 90%)", "policy",
		[]string{"AUER", "UCB1", "eps-greedy", "thompson"}, false,
		func(i int, seed int64) *core.SB {
			return core.NewSB(core.SBConfig{Oracle: true, Seed: seed, Policy: policies[i](seed)})
		})
}

// ablation sweeps one SB variant over the ablation sites.
func ablation(cfg Config, title string, labels []string, build func(i int, seed int64) *core.SB) error {
	cfg = cfg.withDefaults()
	return sweep(cfg, sitesOrDefault(cfg, []string{"be", "cn", "nc"}),
		title+" (req% to 90%)", "variant", labels, false, build)
}

// RunAblationReward compares the novelty reward (new targets only) against
// the raw predicted-target count (Sec. 3.2's design choice). It runs the
// classifier variant: under a perfect oracle every predicted-target link is
// a new target and the two definitions coincide, so only classification
// errors separate them.
func RunAblationReward(cfg Config) error {
	return ablation(cfg, "Ablation — reward definition (SB-CLASSIFIER)",
		[]string{"novelty", "raw-count"},
		func(i int, seed int64) *core.SB {
			return core.NewSB(core.SBConfig{Seed: seed, RawReward: i == 1})
		})
}

// RunAblationDim sweeps the projection dimension D = 2^m, which the paper
// reports as insignificant.
func RunAblationDim(cfg Config) error {
	ms := []uint{8, 10, 12, 14}
	return ablation(cfg, "Ablation — projection dimension D=2^m",
		[]string{"m=8", "m=10", "m=12", "m=14"},
		func(i int, seed int64) *core.SB {
			return core.NewSB(core.SBConfig{
				Oracle: true, Seed: seed,
				Index: core.ActionIndexConfig{M: ms[i], W: ms[i] + 3},
			})
		})
}

// RunAblationBatch sweeps the classifier batch size b of Algorithm 2.
func RunAblationBatch(cfg Config) error {
	bs := []int{5, 10, 50, 200}
	return ablation(cfg, "Ablation — classifier batch size b",
		[]string{"b=5", "b=10", "b=50", "b=200"},
		func(i int, seed int64) *core.SB {
			return core.NewSB(core.SBConfig{Seed: seed, BatchSize: bs[i]})
		})
}
