// Command crawlbench regenerates the paper's tables and figures over the
// synthetic website substrate.
//
// Usage:
//
//	crawlbench -list
//	crawlbench -exp table2 -scale 0.002 -runs 3
//	crawlbench -exp fig4 -sites ce,ju -csv out/
//	crawlbench -exp all
//	crawlbench -exp table2 -parallel 0    (fan sites out across all cores)
//	crawlbench -exp fig4 -stats           (append the speculation hit-rate report)
//	crawlbench -exp resume -store /tmp/cs (kill-and-resume smoke over the
//	                                       persistent store)
//	crawlbench -exp resilience            (recall under injected faults,
//	                                       retries on and off)
//
// Scale 0.002 shrinks every site to 1/500 of its paper size; shapes (who
// wins, by what factor) are preserved, absolute counts are not.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"sbcrawl/internal/experiments"
)

func main() { os.Exit(run()) }

// run returns the exit status, so the store is closed on every path and a
// failed close (the final flush or compaction) fails the command.
func run() (status int) {
	var (
		exp      = flag.String("exp", "", "experiment ID (see -list), or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.Float64("scale", 0.002, "site size multiplier vs the paper")
		seed     = flag.Int64("seed", 1, "random seed")
		runs     = flag.Int("runs", 3, "repetitions for stochastic crawlers (paper: 15)")
		sites    = flag.String("sites", "", "comma-separated site codes (default: experiment's own)")
		maxPages = flag.Int("maxpages", 0, "cap per-site page count (0 = none)")
		csvDir   = flag.String("csv", "", "directory for figure CSV series")
		parallel = flag.Int("parallel", 1, "sites crawled concurrently (0 = one per CPU core)")
		stats    = flag.Bool("stats", false, "append the speculation hit-rate report after the experiment (see -exp speculation)")
		storeDir = flag.String("store", "", "persistent crawl store directory: responses spill to an append-only segment log and replay on later runs (see -exp resume)")
	)
	flag.Parse()
	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}

	if *list || *exp == "" {
		fmt.Println("Available experiments (paper artifact → report):")
		for _, e := range experiments.All {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}

	cfg := experiments.Config{
		Scale:     *scale,
		Seed:      *seed,
		Runs:      *runs,
		MaxPages:  *maxPages,
		Workers:   *parallel,
		CSVDir:    *csvDir,
		StorePath: *storeDir,
		Out:       os.Stdout,
	}
	if *sites != "" {
		cfg.Sites = strings.Split(*sites, ",")
	}
	closeStore, err := cfg.OpenStore()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crawlbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := closeStore(); err != nil {
			fmt.Fprintf(os.Stderr, "crawlbench: closing store: %v\n", err)
			status = max(status, 1)
		}
	}()

	if *exp == "all" {
		for _, e := range experiments.All {
			fmt.Printf("==== %s — %s ====\n", e.ID, e.Title)
			if err := e.Run(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "crawlbench: %s: %v\n", e.ID, err)
				return 1
			}
			fmt.Println()
		}
		return 0
	}
	e, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "crawlbench: unknown experiment %q (use -list)\n", *exp)
		return 2
	}
	if err := e.Run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "crawlbench: %v\n", err)
		return 1
	}
	if *stats && *exp != "speculation" {
		fmt.Println()
		if err := experiments.RunSpeculation(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "crawlbench: speculation stats: %v\n", err)
			return 1
		}
	}
	return 0
}
