package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesTables keeps BENCHMARK.json and the metric tables one
// definition, and inside the driver contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(onDisk)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Errorf("BENCHMARK.json differs from the metric tables; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n != 6 {
		t.Errorf("%d workloads, want the six of ISSUE 11", n)
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for _, d := range perLayer {
		name(d.Name)
		if len(d.On) == 0 {
			t.Errorf("%s is measured on no workload", d.Name)
		}
	}
}

// TestSmoke runs all six workloads at -scale tiny, tracing off and traced:
// every output check passes, every metric BENCHMARK.json names is emitted
// exactly once per workload, end-to-end metrics are never 0, and a
// per-layer metric is 0 exactly where its layer does no work.
func TestSmoke(t *testing.T) {
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			mode := map[bool]string{false: "untraced", true: "traced"}[traced]
			t.Run(w+"/"+mode, func(t *testing.T) { smoke(t, w, traced) })
		}
	}
}

func smoke(t *testing.T, w string, traced bool) {
	cfg := runConfig{workload: w, p: tinyParams, seed: 3, traced: traced, dir: t.TempDir()}
	defs := endToEnd
	if traced {
		defs = perLayer
		cfg.spanFile = filepath.Join(cfg.dir, "spans.csv")
	}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d %v", res.Correct, res.Failed, res.Attempted, res.Mismatches)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s has unit %q, want %q", d.Name, v.Unit, d.Unit)
		case !traced && v.Value == 0:
			t.Errorf("end-to-end metric %s is 0", d.Name)
		case traced && !d.on(w) && v.Value != 0:
			t.Errorf("%s = %v on a workload that does not measure it", d.Name, v.Value)
		}
	}
	if traced {
		if info, err := os.Stat(cfg.spanFile); err != nil || info.Size() == 0 {
			t.Errorf("no spans written: %v", err)
		}
	}
}

// TestOutputCheckFires hands a workload a deliberately wrong reference: the
// pass must count the mismatch as a failed operation and say which crawl.
func TestOutputCheckFires(t *testing.T) {
	r, err := setup(wSBCPU, tinyParams, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.reference(); err != nil {
		t.Fatal(err)
	}
	if p, err := r.pass(); err != nil || p.failed != 0 {
		t.Fatalf("honest reference: failed=%d err=%v %v", p.failed, err, p.mismatches)
	}
	r.(*crawlRunner).jobs[1].ref = "not the fingerprint"
	p, err := r.pass()
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 1 || len(p.mismatches) != 1 {
		t.Fatalf("wrong reference: failed=%d mismatches=%v, want exactly one", p.failed, p.mismatches)
	}
	// The traced pass refuses to report layer numbers over a wrong output.
	if _, _, err := r.layers(newTracer()); err == nil {
		t.Error("traced pass accepted a fingerprint that differs from the reference")
	}
}

// TestCompare covers the noise guard: incomparable files are refused, a
// spread beyond the bound is unresolved, a real regression fails.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, gomaxprocs int, reqPerS, spread float64) string {
		f := resultFile{Env: envStamp{GOMAXPROCS: gomaxprocs}, Seed: 1, Seconds: 10, Params: tinyParams}
		f.Workloads = append(f.Workloads, &workloadResult{Workload: wSBCPU, Metrics: map[string]metricValue{
			"req_per_s": {Value: reqPerS, Unit: "1/s", N: 5, Spread: spread},
		}})
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 2, 1000, 0.02)
	var out bytes.Buffer
	if err := compareFiles(base, write("other-procs.json", 4, 1000, 0.02), &out); err == nil {
		t.Error("files with different GOMAXPROCS were compared")
	}
	out.Reset()
	if err := compareFiles(base, write("slow.json", 2, 600, 0.02), &out); err == nil || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a 40%% drop in req_per_s passed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(base, write("noisy.json", 2, 600, 0.3), &out); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a pair noisier than its bound was not marked unresolved: %v\n%s", err, out.String())
	}
}
