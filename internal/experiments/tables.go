package experiments

import (
	"fmt"
	"slices"

	"sbcrawl/internal/classify"
	"sbcrawl/internal/core"
	"sbcrawl/internal/learn"
	"sbcrawl/internal/metrics"
	"sbcrawl/internal/sitegen"
)

// RunTable1 regenerates Table 1: the main characteristics of the 18 sites,
// measured on the generated sites by exhaustive graph walk.
func RunTable1(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(cfg.Out, "Table 1 — website characteristics (scale %.4g)\n", cfg.Scale)
	fmt.Fprintf(cfg.Out, "%-4s %-5s %-5s %9s %9s %10s %14s %14s\n",
		"site", "Mlg.", "F.C.", "#Avail", "#Target", "HTMLtoT(%)", "TgtSize(KB)", "TgtDepth")
	sites := sitesOrDefault(cfg, allCodes())
	rows, err := forEachSite(cfg, sites, func(code string) (string, error) {
		site, err := generate(cfg, code)
		if err != nil {
			return "", err
		}
		p, st := site.Profile, site.ComputeStats()
		return fmt.Sprintf("%-4s %-5s %-5s %9d %9d %10.2f %7.1f(±%.1f) %7.2f(±%.2f)\n",
			code, checkmark(p.Multilingual), checkmark(p.FullyCrawled),
			st.Available, st.Targets, st.HTMLToTargetPct,
			st.TargetSizeMean/1024, st.TargetSizeStd/1024,
			st.TargetDepthMean, st.TargetDepthStd), nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprint(cfg.Out, row)
	}
	return nil
}

func checkmark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// RunTable2 regenerates Table 2: for every crawler and site, the percentage
// of requests needed to retrieve 90% of the targets (lower is better), plus
// the early-stopping rows below the double rule.
func RunTable2(cfg Config) error {
	cfg = cfg.withDefaults()
	return runMetricTable(cfg, "Table 2 — %% of requests to retrieve 90%% of targets",
		func(c *matrixCell) float64 { return c.RequestPct }, true)
}

// RunTable3 regenerates Table 3: the fraction of non-target volume retrieved
// before reaching 90% of the total target volume.
func RunTable3(cfg Config) error {
	cfg = cfg.withDefaults()
	return runMetricTable(cfg, "Table 3 — %% of non-target volume before 90%% of target volume",
		func(c *matrixCell) float64 { return c.VolumePct }, false)
}

func runMetricTable(cfg Config, title string, metric func(*matrixCell) float64, withEarlyStop bool) error {
	sites := sitesOrDefault(cfg, allCodes())
	// Work returns only the extracted metric values so the generated site,
	// replay cache, and traces are released as each site finishes.
	type siteCells struct {
		row map[string]float64 // crawler → metric value
		es  metrics.EarlyStopOutcome
	}
	perSite, err := forEachSite(cfg, sites, func(code string) (siteCells, error) {
		se, err := buildSite(cfg, code)
		if err != nil {
			return siteCells{}, err
		}
		cells, err := runMatrix(cfg, se)
		if err != nil {
			return siteCells{}, err
		}
		sc := siteCells{row: make(map[string]float64, len(cells))}
		for name, cell := range cells {
			sc.row[name] = metric(cell)
		}
		if withEarlyStop {
			sc.es, err = earlyStop(cfg, se, cells["SB-CLASSIFIER"].Result)
			if !sc.es.Fired {
				// The rule never fired before the crawl's end (behaviours
				// (ii) and (iii)): it saved and lost nothing.
				sc.es = metrics.EarlyStopOutcome{}
			}
		}
		return sc, err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, title+" (scale %.4g, %d run(s))\n", cfg.Scale, cfg.Runs)
	fmt.Fprintf(cfg.Out, "%-14s", "Crawler")
	for _, code := range sites {
		fmt.Fprintf(cfg.Out, " %6s", code)
	}
	fmt.Fprintln(cfg.Out)
	for _, name := range CrawlerOrder {
		// TRES and SB-ORACLE run on fully crawled sites only: a crawler
		// gets a row when some site ran it, and NA where a site did not.
		ran := func(sc siteCells) bool { _, ok := sc.row[name]; return ok }
		if !slices.ContainsFunc(perSite, ran) {
			continue
		}
		fmt.Fprintf(cfg.Out, "%-14s", name)
		for _, sc := range perSite {
			if v, ok := sc.row[name]; ok {
				fmt.Fprintf(cfg.Out, " %6s", fmtPct(v))
			} else {
				fmt.Fprintf(cfg.Out, " %6s", "NA")
			}
		}
		fmt.Fprintln(cfg.Out)
	}
	if withEarlyStop {
		fmt.Fprintln(cfg.Out, "---- early stopping (SB-CLASSIFIER) ----")
		fmt.Fprintf(cfg.Out, "%-14s", "Saved req.")
		for _, sc := range perSite {
			fmt.Fprintf(cfg.Out, " %6.1f", sc.es.SavedRequestsPct)
		}
		fmt.Fprintln(cfg.Out)
		fmt.Fprintf(cfg.Out, "%-14s", "Lost targets")
		for _, sc := range perSite {
			fmt.Fprintf(cfg.Out, " %6.1f", sc.es.LostTargetsPct)
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// earlyStop runs SB-CLASSIFIER with the scaled Section 4.8 stopper and
// compares it against full, the same crawl run to the end.
func earlyStop(cfg Config, se *siteEnv, full *core.Result) (metrics.EarlyStopOutcome, error) {
	es := core.ScaledEarlyStop(se.stats.Available)
	res, err := core.NewSB(core.SBConfig{Seed: cfg.Seed, EarlyStop: &es}).Run(se.env)
	if err != nil {
		return metrics.EarlyStopOutcome{}, err
	}
	return metrics.CompareEarlyStop(res, full), nil
}

// RunEarlyStop regenerates the lower rows of Table 2 on their own.
func RunEarlyStop(cfg Config) error {
	cfg = cfg.withDefaults()
	sites := sitesOrDefault(cfg, allCodes())
	fmt.Fprintf(cfg.Out, "Early stopping (ν·κ scaled; scale %.4g)\n", cfg.Scale)
	fmt.Fprintf(cfg.Out, "%-4s %10s %10s %8s\n", "site", "saved(%)", "lost(%)", "fired")
	outcomes, err := forEachSite(cfg, sites, func(code string) (metrics.EarlyStopOutcome, error) {
		se, err := buildSite(cfg, code)
		if err != nil {
			return metrics.EarlyStopOutcome{}, err
		}
		full, err := core.NewSB(core.SBConfig{Seed: cfg.Seed}).Run(se.env)
		if err != nil {
			return metrics.EarlyStopOutcome{}, err
		}
		return earlyStop(cfg, se, full)
	})
	if err != nil {
		return err
	}
	for i, code := range sites {
		out := outcomes[i]
		fmt.Fprintf(cfg.Out, "%-4s %10.1f %10.1f %8v\n",
			code, out.SavedRequestsPct, out.LostTargetsPct, out.Fired)
	}
	return nil
}

// sweep crawls each site with every variant build makes, cfg.Runs seeds per
// variant, and prints under header one row per variant: the mean % of
// requests to 90% of targets on each site, plus the mean % of non-target
// volume when withVol is set. Table 4 and the ablations are sweeps.
func sweep(cfg Config, sites []string, header, column string, labels []string, withVol bool,
	build func(i int, seed int64) *core.SB) error {
	type cell struct{ req, vol float64 }
	perSite, err := forEachSite(cfg, sites, func(code string) ([]cell, error) {
		se, err := buildSite(cfg, code)
		if err != nil {
			return nil, err
		}
		cells := make([]cell, len(labels))
		for i := range labels {
			var req, vol []float64
			for run := 0; run < cfg.Runs; run++ {
				res, err := build(i, cfg.Seed+int64(run)*101).Run(se.env)
				if err != nil {
					return nil, err
				}
				req = append(req, metrics.RequestPct90(res.Trace, se.totals))
				vol = append(vol, metrics.VolumePct90(res.Trace, se.totals))
			}
			cells[i] = cell{metrics.Mean(req), metrics.Mean(vol)}
		}
		return cells, nil
	})
	if err != nil {
		return err
	}
	codeFmt := " %6s"
	if withVol {
		codeFmt = " %13s"
	}
	fmt.Fprintf(cfg.Out, "%s\n%-12s", header, column)
	for _, code := range sites {
		fmt.Fprintf(cfg.Out, codeFmt, code)
	}
	fmt.Fprintln(cfg.Out)
	for i, label := range labels {
		fmt.Fprintf(cfg.Out, "%-12s", label)
		for s := range sites {
			c := perSite[s][i]
			if withVol {
				fmt.Fprintf(cfg.Out, " %6s|%6s", fmtPct(c.req), fmtPct(c.vol))
			} else {
				fmt.Fprintf(cfg.Out, " %6s", fmtPct(c.req))
			}
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// table4 sweeps one SB-ORACLE hyper-parameter over the fully crawled sites.
func table4(cfg Config, title string, labels []string, build func(i int, seed int64) *core.SB) error {
	cfg = cfg.withDefaults()
	return sweep(cfg, sitesOrDefault(cfg, sitegen.FullyCrawledCodes()),
		title+" (SB-ORACLE, fully-crawled sites; req% | vol%)", "Variant", labels, true, build)
}

// RunTable4Alpha sweeps α ∈ {0.1, 2√2, 30} (Table 4 top, Figures 8–9).
func RunTable4Alpha(cfg Config) error {
	alphas := []float64{0.1, 2.8284271247461903, 30}
	return table4(cfg, "Table 4 (top) — exploration coefficient α",
		[]string{"a=0.1", "a=2sqrt2", "a=30"},
		func(i int, seed int64) *core.SB {
			return core.NewSB(core.SBConfig{Oracle: true, Alpha: alphas[i], Seed: seed})
		})
}

// RunTable4Ngram sweeps n ∈ {1, 2, 3} (Table 4 middle, Figures 10–11).
func RunTable4Ngram(cfg Config) error {
	return table4(cfg, "Table 4 (middle) — n-gram order",
		[]string{"n=1", "n=2", "n=3"},
		func(i int, seed int64) *core.SB {
			return core.NewSB(core.SBConfig{
				Oracle: true, Seed: seed,
				Index: core.ActionIndexConfig{N: i + 1},
			})
		})
}

// RunTable4Theta sweeps θ ∈ {0.55, 0.75, 0.95} (Table 4 bottom, Figs 12–13).
func RunTable4Theta(cfg Config) error {
	thetas := []float64{0.55, 0.75, 0.95}
	return table4(cfg, "Table 4 (bottom) — similarity threshold θ",
		[]string{"th=0.55", "th=0.75", "th=0.95"},
		func(i int, seed int64) *core.SB {
			return core.NewSB(core.SBConfig{
				Oracle: true, Seed: seed,
				Index: core.ActionIndexConfig{Theta: thetas[i]},
			})
		})
}

// classifierVariant is one URL-classifier configuration of Table 5.
type classifierVariant struct {
	label, model string
	features     classify.FeatureSet
}

// classifierVariants are Table 5's eight configurations: every model over
// each feature set.
var classifierVariants = func() []classifierVariant {
	var out []classifierVariant
	for _, feat := range []classify.FeatureSet{classify.URLOnly, classify.URLContent} {
		for _, model := range learn.ModelNames {
			out = append(out, classifierVariant{feat.String() + "-" + model, model, feat})
		}
	}
	return out
}()

// classifierCells crawls each site with every classifier variant, runs seeds
// per variant, and returns per variant the mean % of requests to 90% of
// targets on each site (req[variant][site]) and the confusion counts merged
// across sites and runs. Merged counts are the paper's "inter-site averaged
// confusion matrices": they weight every prediction equally, so floor-size
// sites with a handful of predictions do not dominate.
func classifierCells(cfg Config, sites []string, runs int) (req [][]float64, conf []classify.Confusion, err error) {
	type cell struct {
		req  float64
		conf classify.Confusion
	}
	perSite, err := forEachSite(cfg, sites, func(code string) ([]cell, error) {
		se, err := buildSite(cfg, code)
		if err != nil {
			return nil, err
		}
		cells := make([]cell, len(classifierVariants))
		for i, v := range classifierVariants {
			var reqs []float64
			for run := 0; run < runs; run++ {
				res, err := core.NewSB(core.SBConfig{
					Seed:     cfg.Seed + int64(run)*101,
					Model:    v.model,
					Features: v.features,
				}).Run(se.env)
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, metrics.RequestPct90(res.Trace, se.totals))
				if res.Confusion != nil {
					cells[i].conf.Merge(res.Confusion)
				}
			}
			cells[i].req = metrics.Mean(reqs)
		}
		return cells, nil
	})
	if err != nil {
		return nil, nil, err
	}
	req = make([][]float64, len(classifierVariants))
	conf = make([]classify.Confusion, len(classifierVariants))
	for i := range classifierVariants {
		req[i] = make([]float64, len(sites))
		for s := range sites {
			req[i][s] = perSite[s][i].req
			conf[i].Merge(&perSite[s][i].conf)
		}
	}
	return req, conf, nil
}

// RunTable5 regenerates Table 5: the intra-site crawl metric per classifier
// variant plus the inter-site misclassification rate column.
func RunTable5(cfg Config) error {
	cfg = cfg.withDefaults()
	sites := sitesOrDefault(cfg, sitegen.FullyCrawledCodes())
	req, conf, err := classifierCells(cfg, sites, cfg.Runs)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "Table 5 — classifier variants (req%% to 90%% targets; MR = inter-site misclassification %%)\n")
	fmt.Fprintf(cfg.Out, "%-14s", "Variant")
	for _, code := range sites {
		fmt.Fprintf(cfg.Out, " %6s", code)
	}
	fmt.Fprintf(cfg.Out, " %6s\n", "MR")
	for i, v := range classifierVariants {
		fmt.Fprintf(cfg.Out, "%-14s", v.label)
		for _, r := range req[i] {
			fmt.Fprintf(cfg.Out, " %6s", fmtPct(r))
		}
		fmt.Fprintf(cfg.Out, " %6.2f\n", conf[i].MisclassificationRate())
	}
	return nil
}

// RunConfusion regenerates Tables 8–16: the confusion matrix of each
// classifier variant, averaged across the fully crawled sites.
func RunConfusion(cfg Config) error {
	cfg = cfg.withDefaults()
	sites := sitesOrDefault(cfg, sitegen.FullyCrawledCodes())
	_, conf, err := classifierCells(cfg, sites, 1)
	if err != nil {
		return err
	}
	for i, v := range classifierVariants {
		fmt.Fprintf(cfg.Out, "Confusion matrix — %s (inter-site, %d sites)\n%s\n",
			v.label, len(sites), &conf[i])
	}
	return nil
}

// rewardStats crawls each site once with SB-CLASSIFIER and summarizes its
// non-zero action rewards (Table 6, Figure 5).
func rewardStats(cfg Config, sites []string) ([]metrics.RewardStats, error) {
	return forEachSite(cfg, sites, func(code string) (metrics.RewardStats, error) {
		se, err := buildSite(cfg, code)
		if err != nil {
			return metrics.RewardStats{}, err
		}
		res, err := core.NewSB(core.SBConfig{Seed: cfg.Seed}).Run(se.env)
		if err != nil {
			return metrics.RewardStats{}, err
		}
		return metrics.ComputeRewardStats(res.Actions, 10), nil
	})
}

// RunTable6 regenerates Table 6: mean and STD of the agent's non-zero
// rewards on every site.
func RunTable6(cfg Config) error {
	cfg = cfg.withDefaults()
	sites := sitesOrDefault(cfg, allCodes())
	fmt.Fprintf(cfg.Out, "Table 6 — non-zero action rewards (SB-CLASSIFIER)\n")
	fmt.Fprintf(cfg.Out, "%-4s %10s %10s %8s\n", "site", "mean", "std", "groups")
	stats, err := rewardStats(cfg, sites)
	if err != nil {
		return err
	}
	for i, code := range sites {
		st := stats[i]
		fmt.Fprintf(cfg.Out, "%-4s %10.2f %10.2f %8d\n", code, st.Mean, st.Std, st.Groups)
	}
	return nil
}

// RunTable7 regenerates Table 7: SD yield over sampled targets of the seven
// sites the paper annotates.
func RunTable7(cfg Config) error {
	cfg = cfg.withDefaults()
	sites := sitesOrDefault(cfg, sitegen.Table7Codes)
	fmt.Fprintf(cfg.Out, "Table 7 — SDs retrieval across sample targets (40 per site)\n")
	fmt.Fprintf(cfg.Out, "%-4s %12s %16s %8s\n", "site", "SD Yield(%)", "Mean #SDs/Tgt", "sampled")
	reports, err := forEachSite(cfg, sites, func(code string) (metrics.SDYieldReport, error) {
		site, err := generate(cfg, code)
		if err != nil {
			return metrics.SDYieldReport{}, err
		}
		return metrics.SDYield(site, 40, cfg.Seed), nil
	})
	if err != nil {
		return err
	}
	for i, code := range sites {
		rep := reports[i]
		fmt.Fprintf(cfg.Out, "%-4s %12.0f %16.1f %8d\n", code, rep.YieldPct, rep.MeanSDs, rep.Sampled)
	}
	return nil
}
