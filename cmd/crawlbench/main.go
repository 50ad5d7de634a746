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
//	crawlbench -exp table2 -prefetch auto (adaptive speculation window)
//	crawlbench -exp fig4 -prefetch 8 -stats   (append hit-rate report)
//	crawlbench -exp resume -store /tmp/cs     (kill-and-resume smoke over the
//	                                           persistent store)
//
// Scale 0.002 shrinks every site to 1/500 of its paper size; shapes (who
// wins, by what factor) are preserved, absolute counts are not.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"sbcrawl/internal/core"
	"sbcrawl/internal/experiments"
)

// parsePrefetch maps the -prefetch flag onto experiments.Config.Prefetch:
// a window width, 0 for the sequential engine, or "auto" for the adaptive
// self-tuning window.
func parsePrefetch(s string) (int, error) {
	if strings.EqualFold(s, "auto") {
		return core.PrefetchAuto, nil
	}
	return strconv.Atoi(s)
}

// parsePartitions maps the -partitions flag onto
// experiments.Config.Partitions: a partition count, 0 for off, or "auto"
// for min(GOMAXPROCS, 8).
func parsePartitions(s string) (int, error) {
	if strings.EqualFold(s, "auto") {
		return core.PartitionsAuto, nil
	}
	return strconv.Atoi(s)
}

func main() {
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
		prefetch = flag.String("prefetch", "0", "speculative fetch window per crawl: a width, 0 (sequential engine), or 'auto' (adaptive)")
		parts    = flag.String("partitions", "0", "speculation-window multiplier per crawl (Config.Partitions): a count, 0 (off), or 'auto' (min(cores, 8))")
		stats    = flag.Bool("stats", false, "append the speculation hit-rate report after the experiment (see -exp speculation)")
		storeDir = flag.String("store", "", "persistent crawl store directory: responses spill to an append-only segment log and replay on later runs (see -exp resume)")
		faults   = flag.Float64("faults", 0, "inject seeded transient faults into this fraction of URLs (chaos mode; see -exp resilience)")
		faultSd  = flag.Int64("fault-seed", 0, "seed for the injected-fault plan (0 = -seed)")
		retries  = flag.Int("retries", 0, "transient-failure retry budget under -faults: 0 = default, n fixes it, negative disarms retrying and the circuit breaker")
	)
	flag.Parse()
	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	prefetchWidth, err := parsePrefetch(*prefetch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crawlbench: bad -prefetch %q (want a width, 0, or 'auto')\n", *prefetch)
		os.Exit(2)
	}
	partitionN, err := parsePartitions(*parts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crawlbench: bad -partitions %q (want a count, 0, or 'auto')\n", *parts)
		os.Exit(2)
	}

	if *list || *exp == "" {
		fmt.Println("Available experiments (paper artifact → report):")
		for _, e := range experiments.All {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := experiments.Config{
		Scale:      *scale,
		Seed:       *seed,
		Runs:       *runs,
		MaxPages:   *maxPages,
		Workers:    *parallel,
		Prefetch:   prefetchWidth,
		Partitions: partitionN,
		CSVDir:     *csvDir,
		StorePath:  *storeDir,
		FaultRate:  *faults,
		FaultSeed:  *faultSd,
		Retries:    *retries,
		Out:        os.Stdout,
	}
	if *sites != "" {
		cfg.Sites = strings.Split(*sites, ",")
	}
	closeStore, err := cfg.OpenStore()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crawlbench: %v\n", err)
		os.Exit(1)
	}
	defer closeStore()

	if *exp == "all" {
		for _, e := range experiments.All {
			fmt.Printf("==== %s — %s ====\n", e.ID, e.Title)
			if err := e.Run(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "crawlbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}
	e, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "crawlbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	if err := e.Run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "crawlbench: %v\n", err)
		os.Exit(1)
	}
	if *stats && *exp != "speculation" {
		fmt.Println()
		if err := experiments.RunSpeculation(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "crawlbench: speculation stats: %v\n", err)
			os.Exit(1)
		}
	}
}
