package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metricValue is one reported number. N is the sample count behind it and
// Spread its (max − min) / median over those samples.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Spread float64 `json:"spread"`
}

// workloadResult is everything one run of one workload measured.
type workloadResult struct {
	Workload   string                 `json:"workload"`
	Traced     bool                   `json:"traced"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Passes     int                    `json:"passes"`
	Metrics    map[string]metricValue `json:"metrics"`
	Mismatches []string               `json:"mismatches,omitempty"`
}

// An untraced run sets the workload up at least minSetups times and until
// setupSeconds have gone into it (at most maxSetups times); the median is
// setup_s. Set-up here is milliseconds of site generation, so one sample
// would be mostly noise.
const (
	minSetups    = 5
	maxSetups    = 40
	setupSeconds = 1.0
)

// runConfig selects what one invocation measures.
type runConfig struct {
	workload string
	p        params
	seed     int64
	seconds  float64 // how long the timed passes measure
	traced   bool    // report the per-layer metrics instead of the end-to-end ones
	spanFile string  // where a traced run writes its spans ("" = nowhere)
	dir      string  // scratch directory for stores
}

// runWorkload measures one workload: set-up (timed), the reference crawls,
// one untimed warm-up pass, then timed passes for cfg.seconds (at least
// three; crawld-sessions, whose pass is itself thousands of samples, at
// least one). A traced run makes only that minimum of untraced passes, then
// one traced pass, and reports the per-layer metrics.
func runWorkload(cfg runConfig) (*workloadResult, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	var r runner
	var setups []float64
	for !(cfg.traced && len(setups) == 1) && len(setups) < maxSetups && (len(setups) < minSetups || sum(setups) < setupSeconds) {
		runtime.GC() // every sample starts from a collected heap, not from its predecessor's garbage
		t0 := time.Now()
		var err error
		if r, err = setup(cfg.workload, cfg.p, cfg.seed, cfg.dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := r.reference(); err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: cfg.workload, Traced: cfg.traced, Metrics: map[string]metricValue{}}
	count := func(p passStats) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.Mismatches = append(res.Mismatches, p.mismatches...)
	}
	if err := r.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	minPasses := 3
	if cfg.workload == wCrawld || cfg.seconds <= 0 {
		minPasses = 1
	}
	var passes []passStats
	// Another pass starts only while it is expected to end within a quarter
	// past the run length.
	another := func(elapsed float64) bool {
		return !cfg.traced && elapsed+elapsed/float64(len(passes)) <= 1.25*cfg.seconds
	}
	for start := time.Now(); len(passes) < minPasses || another(time.Since(start).Seconds()); {
		p, err := r.pass()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(passes)+1, err)
		}
		count(p)
		passes = append(passes, p)
	}
	res.Passes = len(passes)
	series := func(f func(p passStats) float64) []float64 {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = f(p)
		}
		return vs
	}
	set := func(name string, vs []float64) {
		for _, d := range endToEnd {
			if d.Name == name {
				res.Metrics[name] = metricValue{Value: median(vs), Unit: d.Unit, N: len(vs), Spread: spread(vs)}
			}
		}
	}
	kreq := func(p passStats) float64 { return float64(p.requests) / 1000 }

	if !cfg.traced {
		set("setup_s", setups)
		set("req_per_s", series(func(p passStats) float64 { return ratio(float64(p.requests), p.wall) }))
		set("cpu_s_per_kreq", series(func(p passStats) float64 { return ratio(p.cpu, kreq(p)) }))
		set("alloc_mb_per_kreq", series(func(p passStats) float64 { return ratio(p.allocMB, kreq(p)) }))
		set("peak_rss_mb", []float64{peakRSSMB()})
		set("targets_per_kreq", series(func(p passStats) float64 { return ratio(float64(p.targets), kreq(p)) }))
		set("req_frac_to_90pct", series(func(p passStats) float64 { return ratio(float64(p.req90), float64(p.pages)) }))
		res.Correct = res.Failed == 0
		return res, nil
	}

	tr := newTracer()
	tr.pass = 1
	layer, tp, err := r.layers(tr)
	if cfg.spanFile != "" {
		if werr := tr.writeCSV(cfg.spanFile); werr != nil && err == nil {
			err = werr
		}
	}
	count(tp)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	untraced := passes[len(passes)-1]
	wall := median(series(func(p passStats) float64 { return p.wall }))
	layer["trace.overhead_share"] = ratio(tp.wall-wall, wall)
	layer["failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	for name, v := range untraced.extra {
		layer[name] = v
	}
	for _, d := range perLayer {
		v := 0.0
		if d.on(cfg.workload) {
			v = layer[d.Name]
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit, N: 1}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// print writes every metric by name with unit, sample count and spread.
func (res *workloadResult) print(w io.Writer) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s: %d passes, %d operations attempted, %d failed\n", res.Workload, res.Passes, res.Attempted, res.Failed)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		if res.Traced && !d.on(res.Workload) {
			continue // the layer does no work on this workload; reported as 0
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%d spread=%.1f%%\n", d.Name, v.Value, v.Unit, v.N, v.Spread*100)
	}
	for _, msg := range res.Mismatches {
		fmt.Fprintf(w, "  OUTPUT CHECK FAILED: %s\n", msg)
	}
}
