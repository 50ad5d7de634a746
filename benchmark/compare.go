package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
)

func loadResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (metric, workload) of two result files of
// the same benchmark configuration. An end-to-end pair whose own spread
// exceeds the metric's bound is unresolved, not unchanged; per-layer rows
// carry no verdict, they locate a change.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	switch {
	case a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return fmt.Errorf("not comparable: GOMAXPROCS %d vs %d", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	case a.Seed != b.Seed:
		return fmt.Errorf("not comparable: seed %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds:
		return fmt.Errorf("not comparable: run length %gs vs %gs", a.Seconds, b.Seconds)
	case !reflect.DeepEqual(a.Params, b.Params):
		return fmt.Errorf("not comparable: workload parameters differ")
	}
	fmt.Fprintf(w, "a: %s commit %s load %.2f→%.2f\nb: %s commit %s load %.2f→%.2f\n", pathA, a.Env.Commit, a.Env.LoadBefore, a.Env.LoadAfter,
		pathB, b.Env.Commit, b.Env.LoadBefore, b.Env.LoadAfter)
	find := func(f *resultFile, workload string, traced bool) *workloadResult {
		for _, r := range f.Workloads {
			if r.Workload == workload && r.Traced == traced {
				return r
			}
		}
		return nil
	}
	fmt.Fprintf(w, "%-36s %-16s %14s %14s %8s %7s  %s\n", "metric", "workload", "a", "b", "change", "bound", "verdict")
	regressed := 0
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, d := range defs {
			for _, wl := range allWorkloads {
				ra, rb := find(a, wl, traced), find(b, wl, traced)
				if ra == nil || rb == nil || (traced && !d.on(wl)) {
					continue
				}
				va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
				change := ratio(vb.Value-va.Value, va.Value)
				worse := change
				if d.Better == "higher" {
					worse = -change
				}
				verdict, bound := "", "-"
				if !traced {
					bound = fmt.Sprintf("%.0f%%", d.Bound*100)
					switch noise := max(va.Spread, vb.Spread); {
					case noise > d.Bound:
						verdict = fmt.Sprintf("unresolved (spread %.0f%%)", noise*100)
					case worse > d.Bound:
						verdict = "REGRESSED"
						regressed++
					case worse < -d.Bound:
						verdict = "improved"
					default:
						verdict = "ok"
					}
				}
				fmt.Fprintf(w, "%-36s %-16s %14.6g %14.6g %+7.1f%% %7s  %s\n", d.Name, wl, va.Value, vb.Value, change*100, bound, verdict)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metric × workload pairs regressed beyond their bound", regressed)
	}
	return nil
}
