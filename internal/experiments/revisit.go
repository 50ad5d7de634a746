package experiments

import (
	"fmt"

	"sbcrawl/internal/revisit"
)

// RunRevisit evaluates the incremental-revisit extension (the future work of
// Sec. 6): after an initial crawl, hub pages keep gaining targets; with a
// fixed per-epoch revisit budget, four policies compete on recall of the
// newly published files.
func RunRevisit(cfg Config) error {
	cfg = cfg.withDefaults()
	sites := sitesOrDefault(cfg, []string{"is", "nc", "wo"})
	const (
		epochs = 150
		budget = 3
	)
	fmt.Fprintf(cfg.Out, "Extension — incremental revisit recall after %d epochs, %d revisits/epoch\n",
		epochs, budget)
	fmt.Fprintf(cfg.Out, "%-4s %8s %12s %14s %10s %17s\n",
		"site", "hubs", "round-robin", "proportional", "thompson", "sleeping-bandit")
	rows, err := forEachSite(cfg, sites, func(code string) (string, error) {
		site, err := generate(cfg, code)
		if err != nil {
			return "", err
		}
		build := func() *revisit.Simulation {
			return revisit.NewSimulationFromSite(site, cfg.Seed+7)
		}
		sim := build()
		if sim.Pages() == 0 {
			return "", nil
		}
		rr := revisit.Run(build(), &revisit.RoundRobin{}, epochs, budget)
		prop := revisit.Run(build(), &revisit.Proportional{}, epochs, budget)
		th := revisit.Run(build(), revisit.NewThompson(cfg.Seed), epochs, budget)
		sb := revisit.Run(build(), revisit.NewSleepingBandit(), epochs, budget)
		return fmt.Sprintf("%-4s %8d %12.3f %14.3f %10.3f %17.3f\n",
			code, sim.Pages(), rr, prop, th, sb), nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprint(cfg.Out, row)
	}
	return nil
}
