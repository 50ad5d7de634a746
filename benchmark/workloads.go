package main

import (
	"fmt"
	"time"

	"sbcrawl"
)

// params are the workload sizes. The "full" set was calibrated once on the
// reference box (2 cores) so that one pass of each workload takes 1.5–3 s,
// then frozen: changing a number here redefines the benchmark and the
// baseline must be measured again. The "tiny" set only keeps the benchmark
// compiling and honest from tier-1 (bench_test.go).
type params struct {
	Scale string `json:"scale"`

	SBCPU []siteSpec `json:"sb_cpu_sites"`
	BFS   []siteSpec `json:"bfs_parse_sites"`

	Fleet          []siteSpec `json:"fleet_sites"` // each crawled twice
	FleetBudget    int        `json:"fleet_max_requests"`
	FleetLatencyUS int        `json:"fleet_sim_latency_us"`
	FleetFaultRate float64    `json:"fleet_fault_rate"`
	FleetWorkers   int        `json:"fleet_workers"`

	FedCodes      []string `json:"fed_codes"`
	FedScale      float64  `json:"fed_scale"`
	FedBudget     int      `json:"fed_max_requests"`
	FedLatencyUS  int      `json:"fed_sim_latency_us"`
	FedPartitions int      `json:"fed_partitions"`

	Durable         siteSpec `json:"durable_site"`
	CheckpointEvery int      `json:"durable_checkpoint_every"`

	CrawldSites       []siteSpec `json:"crawld_sites"`
	CrawldBurst       int        `json:"crawld_burst_sessions"`
	CrawldInteractive int        `json:"crawld_interactive_sessions"`
	CrawldBudget      int        `json:"crawld_max_requests"`
	CrawldTenants     int        `json:"crawld_tenants"`
	CrawldWorkers     int        `json:"crawld_workers"`
	CrawldCheckEvery  int        `json:"crawld_check_every"`
}

func eightTimes(code string) []string {
	out := make([]string, 8)
	for i := range out {
		out[i] = code
	}
	return out
}

var fullParams = params{
	Scale: "full",
	SBCPU: []siteSpec{{"ed", 0.025}, {"il", 0.002}, {"be", 0.05}},
	BFS:   []siteSpec{{"il", 0.02}, {"ju", 0.3}},

	Fleet:          []siteSpec{{"cn", 0.1}, {"ju", 0.03}, {"be", 0.05}, {"cl", 0.25}},
	FleetBudget:    250,
	FleetLatencyUS: 2000,
	FleetFaultRate: 0.05,
	FleetWorkers:   2,

	FedCodes:      eightTimes("ce"),
	FedScale:      0.001,
	FedBudget:     20000,
	FedLatencyUS:  5000,
	FedPartitions: 4,

	Durable:         siteSpec{"ju", 0.2},
	CheckpointEvery: 64,

	CrawldSites:       []siteSpec{{"cl", 0.005}, {"cn", 0.005}, {"ju", 0.005}, {"ab", 0.005}},
	CrawldBurst:       1024,
	CrawldInteractive: 1024,
	CrawldBudget:      40,
	CrawldTenants:     8,
	CrawldWorkers:     2,
	CrawldCheckEvery:  64,
}

var tinyParams = params{
	Scale: "tiny",
	SBCPU: []siteSpec{{"ed", 0.0005}, {"il", 0.00005}, {"be", 0.0015}},
	BFS:   []siteSpec{{"il", 0.0002}, {"ju", 0.003}},

	Fleet:          []siteSpec{{"cn", 0.01}, {"ju", 0.003}, {"be", 0.004}, {"cl", 0.03}},
	FleetBudget:    16,
	FleetLatencyUS: 200,
	FleetFaultRate: 0.05,
	FleetWorkers:   2,

	FedCodes:      eightTimes("ce"),
	FedScale:      0.00005,
	FedBudget:     2000,
	FedLatencyUS:  200,
	FedPartitions: 4,

	Durable:         siteSpec{"ju", 0.004},
	CheckpointEvery: 16,

	CrawldSites:       []siteSpec{{"cl", 0.005}, {"cn", 0.005}, {"ju", 0.005}, {"ab", 0.005}},
	CrawldBurst:       24,
	CrawldInteractive: 8,
	CrawldBudget:      12,
	CrawldTenants:     8,
	CrawldWorkers:     2,
	CrawldCheckEvery:  8,
}

func paramsFor(scale string) (params, error) {
	switch scale {
	case "full":
		return fullParams, nil
	case "tiny":
		return tinyParams, nil
	}
	return params{}, fmt.Errorf("unknown -scale %q (full, tiny)", scale)
}

// runner is one set-up instance of a workload.
type runner interface {
	// reference computes, once, the fingerprints every pass must reproduce,
	// from plain sequential, zero-latency, fault-free, store-less crawls.
	reference() error
	// warmup lets caches fill and lazy set-up finish, untimed.
	warmup() error
	// pass runs the workload once through the public API with tracing off.
	pass() (passStats, error)
	// layers runs the traced pass and returns the per-layer metrics.
	layers(tr *tracer) (map[string]float64, passStats, error)
}

// siteSeed is the generation seed of a workload's i-th site. Sites are part
// of the frozen workload, like their scales: -seed drives the crawl seeds,
// the fault seed and the session seeds, not the sites. With sites following
// -seed, targets_per_kreq and alloc_mb_per_kreq swung 15–28% from one seed to
// the next on the budgeted SB workloads (1–8% with the sites fixed), and
// sb-cpu's request rate moved more with the site than with the box.
func siteSeed(i int) int64 { return 1001 + int64(i) }

// fleetCrawlSeed is the frozen Config.Seed of the fleet-latency workload.
const fleetCrawlSeed = 1

func genSites(specs []siteSpec) ([]*simSite, error) {
	sites := make([]*simSite, len(specs))
	for i, spec := range specs {
		s, err := genSite(spec, siteSeed(i))
		if err != nil {
			return nil, err
		}
		sites[i] = s
	}
	return sites, nil
}

// setup builds a ready-to-run instance of the named workload: site
// generation, store open, daemon start — the work setup_s times. dir is a
// scratch directory the instance may write stores under.
func setup(name string, p params, seed int64, dir string) (runner, error) {
	switch name {
	case wSBCPU:
		sites, err := genSites(p.SBCPU)
		if err != nil {
			return nil, err
		}
		return newCrawlRunner(name, sites, sbcrawl.Config{Strategy: sbcrawl.StrategySB, Seed: seed}, nil), nil
	case wBFS:
		sites, err := genSites(p.BFS)
		if err != nil {
			return nil, err
		}
		cfg := sbcrawl.Config{Strategy: sbcrawl.StrategyBFS, Seed: seed, Prefetch: sbcrawl.PrefetchAuto}
		return newCrawlRunner(name, sites, cfg, nil), nil
	case wFleet:
		sites, err := genSites(p.Fleet)
		if err != nil {
			return nil, err
		}
		// Every site is listed twice: two entry points per site, which is
		// what lets the fleet-shared speculation cache serve anything.
		sites = append(sites, sites...)
		// -seed drives the fault plan only. The fleet's crawl seed is frozen:
		// eight 250-request SB crawls are too few to average the crawl seed
		// out (alloc_mb_per_kreq, cpu_s_per_kreq and req_per_s each spread
		// 19–20% over ten seeds with it following -seed).
		cfg := sbcrawl.Config{
			Seed: fleetCrawlSeed, MaxRequests: p.FleetBudget,
			SimLatency: time.Duration(p.FleetLatencyUS) * time.Microsecond,
			Prefetch:   sbcrawl.PrefetchAuto,
			FaultRate:  p.FleetFaultRate, FaultSeed: seed,
		}
		opts := &sbcrawl.FleetOptions{Workers: p.FleetWorkers, SharedSpeculation: true}
		return newCrawlRunner(name, sites, cfg, opts), nil
	case wFabric:
		fed, err := genFederation(p.FedCodes, p.FedScale, siteSeed(0))
		if err != nil {
			return nil, err
		}
		cfg := sbcrawl.Config{
			Strategy: sbcrawl.StrategyBFS, Seed: seed, MaxRequests: p.FedBudget,
			SimLatency: time.Duration(p.FedLatencyUS) * time.Microsecond,
			Partitions: p.FedPartitions, Prefetch: sbcrawl.PrefetchAuto,
		}
		return newCrawlRunner(name, []*simSite{fed}, cfg, nil), nil
	case wDurable:
		return newDurableRunner(p, seed, dir)
	case wCrawld:
		return newCrawldRunner(p, seed, dir)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
