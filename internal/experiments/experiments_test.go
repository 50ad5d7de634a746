package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<id>.golden from the current reports")

// tinyConfig keeps test experiments fast: minimum-size sites, single run.
func tinyConfig(out *bytes.Buffer) Config {
	return Config{
		Scale:    0.0005,
		Seed:     1,
		Runs:     1,
		MaxPages: 120,
		Out:      out,
	}
}

// reports memoizes each experiment's masked report at tinyConfig with its
// default sites, so the golden comparison and the assertions below share one
// run of every experiment.
var reports = map[string]string{}

func report(t *testing.T, id string) string {
	t.Helper()
	if r, ok := reports[id]; ok {
		return r
	}
	exp, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	var out bytes.Buffer
	if err := exp.Run(tinyConfig(&out)); err != nil {
		t.Fatalf("%s: %v\n%s", id, err, out.String())
	}
	reports[id] = masked(id, out.String())
	return reports[id]
}

// masked blanks the only bytes that differ between two runs of the same
// code: the resume report's temporary store path and the speculation
// report's timing-dependent columns (launched, hits, miss, evict, headhits,
// hit%).
func masked(id, s string) string {
	lines := strings.SplitAfter(s, "\n")
	for i, line := range lines {
		switch {
		case id == "resume" && strings.HasPrefix(line, "Kill-and-resume"):
			lines[i] = "Kill-and-resume equivalence (store: *)\n"
		case id == "speculation" && i >= 2 && strings.TrimSpace(line) != "":
			f := strings.Fields(line)
			lines[i] = fmt.Sprintf("%-5s %-14s %9s  *\n", f[0], f[1], f[2])
		}
	}
	return strings.Join(lines, "")
}

// TestReportsMatchGoldens pins every paper report byte for byte, and the
// registry to the goldens directory both ways: each All entry has its own ID
// and golden, and each golden an All entry writing it. Regenerate the goldens
// with `go test ./internal/experiments -run Goldens -update` only when a
// report is meant to change.
func TestReportsMatchGoldens(t *testing.T) {
	ids := map[string]bool{}
	for _, exp := range All {
		if ids[exp.ID] {
			t.Errorf("two experiments in All share the ID %q", exp.ID)
		}
		ids[exp.ID] = true
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range goldens {
		if !ids[strings.TrimSuffix(filepath.Base(path), ".golden")] {
			t.Errorf("%s: no experiment in All writes it", path)
		}
	}
	for _, exp := range All {
		t.Run(exp.ID, func(t *testing.T) {
			got := report(t, exp.ID)
			path := filepath.Join("testdata", exp.ID+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s:\n%s", exp.ID, path, got)
			}
		})
	}
}

// mustContain asserts what a report shows whatever its numbers, so these
// properties survive a regeneration of the goldens. A label a row of the
// claim table reads (claims_test.go) is checked there, not here.
func mustContain(t *testing.T, id string, subs ...string) {
	t.Helper()
	r := report(t, id)
	for _, s := range subs {
		if !strings.Contains(r, s) {
			t.Errorf("%s report missing %q:\n%s", id, s, r)
		}
	}
}

// TestRegistryCoversEveryPaperArtifact: which artifacts All holds is pinned
// by the goldens directory (TestReportsMatchGoldens); ByID must resolve
// nothing else.
func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	if _, ok := ByID("nonexistent"); ok {
		t.Error("unknown ID must not resolve")
	}
}

func TestBuildSiteProducesConsistentTotals(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out).withDefaults()
	se, err := buildSite(cfg, "cl")
	if err != nil {
		t.Fatal(err)
	}
	if se.totals.Targets == 0 || se.totals.AvailablePages == 0 {
		t.Fatalf("empty totals: %+v", se.totals)
	}
	// The BFS reference must find every generated target.
	if se.totals.Targets != se.stats.Targets {
		t.Errorf("BFS found %d targets, site has %d", se.totals.Targets, se.stats.Targets)
	}
	if se.totals.TargetBytes <= 0 || se.totals.NonTargetBytes <= 0 {
		t.Errorf("byte totals must be positive: %+v", se.totals)
	}
}

func TestBuildSiteUnknownCode(t *testing.T) {
	var out bytes.Buffer
	if _, err := buildSite(tinyConfig(&out).withDefaults(), "zz"); err == nil {
		t.Error("unknown site code must error")
	}
}

func TestRunTable1(t *testing.T) { mustContain(t, "table1", "cl", "be", "ju", "#Target") }

func TestRunTable2AndMatrix(t *testing.T) {
	mustContain(t, "table2", "SB-ORACLE", "DFS", "TP-OFF", "TRES", "early stopping")
}

func TestRunTable3(t *testing.T) { mustContain(t, "table3", "volume") }

func TestRunTable4Variants(t *testing.T) {
	mustContain(t, "table4-ngram", "n=3")
	mustContain(t, "table4-theta", "th=0.95")
}

func TestRunTable5(t *testing.T) { mustContain(t, "table5", "URL_CONT-PA", "MR") }

func TestRunTable6AndFig5(t *testing.T) {
	mustContain(t, "table6", "groups")
	mustContain(t, "fig5", "top-10")
}

func TestRunTable7(t *testing.T) { mustContain(t, "table7", "be", "is", "wh") }

func TestRunConfusion(t *testing.T) { mustContain(t, "confusion", "Neither") }

func TestRunEarlyStopAndFig15(t *testing.T) {
	mustContain(t, "fig15", "early stop")
}

func TestRunSearchEngines(t *testing.T) { mustContain(t, "searchengines", "crawler") }

func TestRunAblations(t *testing.T) {
	mustContain(t, "ablation-dim", "m=14")
	mustContain(t, "ablation-batch", "b=200")
}

func TestRunFigure4WithCSV(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"cl"}
	cfg.CSVDir = t.TempDir()
	if err := RunFigure4(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.CSVDir, "fig4_cl.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "crawler,requests,targets") {
		t.Error("CSV header missing")
	}
	if !strings.Contains(string(data), "BFS") {
		t.Error("CSV must contain BFS series")
	}
}

func TestRunResume(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"cl"}
	cfg.StorePath = t.TempDir()
	if err := RunResume(cfg); err != nil {
		t.Fatalf("RunResume: %v\n%s", err, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "identical") || strings.Contains(report, "NO") {
		t.Errorf("unexpected resume report:\n%s", report)
	}
	// Segment files landed under the per-(site,strategy) stores.
	segs, err := filepath.Glob(filepath.Join(cfg.StorePath, "*", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Errorf("no segments written: %v %v", segs, err)
	}
}

// TestRunResilience: the robustness table's claim, that no retry-on row
// loses targets, is claim row C8.
func TestRunResilience(t *testing.T) {
	mustContain(t, "resilience", "Resilience", "rate", "retries", "failed")
}

// TestStoreBackedExperimentReplays pins the -store CLI path: a
// second run of an experiment over the same store replays the first run's
// responses instead of re-fetching.
func TestStoreBackedExperimentReplays(t *testing.T) {
	dir := t.TempDir()
	run := func() string {
		var out bytes.Buffer
		cfg := tinyConfig(&out)
		cfg.Sites = []string{"cl"}
		cfg.StorePath = dir
		closeStore, err := cfg.OpenStore()
		if err != nil {
			t.Fatal(err)
		}
		defer closeStore()
		if err := RunTable2(cfg); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := run()
	second := run()
	if first != second {
		t.Errorf("store-backed rerun changed the report:\n%s\nvs\n%s", first, second)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	var stored int64
	for _, seg := range segs {
		if info, err := os.Stat(seg); err == nil {
			stored += info.Size()
		}
	}
	if err != nil || stored == 0 {
		t.Errorf("no responses written: segments %v hold %d bytes (%v)", segs, stored, err)
	}
}

func TestFmtPct(t *testing.T) {
	if fmtPct(math.Inf(1)) != "+inf" {
		t.Error("+Inf must render as +inf")
	}
	if fmtPct(12.34) != "12.3" {
		t.Errorf("fmtPct(12.34) = %q", fmtPct(12.34))
	}
}

// TestParallelWorkersPreserveReports pins the Workers contract: fanning the
// per-site work of an experiment across a worker pool must produce
// byte-identical reports, whatever the worker count.
func TestParallelWorkersPreserveReports(t *testing.T) {
	for _, id := range []string{"table2", "table6", "earlystop", "fig4", "fig15", "searchengines"} {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		var sequential, parallel bytes.Buffer
		cfg := tinyConfig(&sequential)
		cfg.Sites = []string{"cl", "cn", "qa"}
		if err := exp.Run(cfg); err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		cfg.Out = &parallel
		cfg.Workers = 4
		if err := exp.Run(cfg); err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if sequential.String() != parallel.String() {
			t.Errorf("%s: Workers=4 report differs from sequential", id)
		}
	}
}

func TestForEachSiteFailsFast(t *testing.T) {
	cfg := tinyConfig(&bytes.Buffer{}).withDefaults()
	cfg.Workers = 4
	_, err := forEachSite(cfg, []string{"cl", "bogus", "cn"}, func(code string) (int, error) {
		if _, err := buildSite(cfg, code); err != nil {
			return 0, err
		}
		return 1, nil
	})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("err = %v, want the unknown-site failure", err)
	}
}
