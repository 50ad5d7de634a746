package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	wantIDs := []string{
		"table1", "table2", "table3", "fig4", "table4-alpha", "table4-ngram",
		"table4-theta", "table5", "table6", "fig5", "table7", "confusion",
		"earlystop", "fig15", "searchengines",
		"ablation-policy", "ablation-reward", "ablation-dim", "ablation-batch",
		"ext-revisit", "speculation", "resume", "resilience",
	}
	for _, id := range wantIDs {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if _, ok := ByID("nonexistent"); ok {
		t.Error("unknown ID must not resolve")
	}
	if len(All) != len(wantIDs) {
		t.Errorf("registry has %d experiments, want %d", len(All), len(wantIDs))
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

func TestRunTable1(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"cl", "be", "ju"}
	if err := RunTable1(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, code := range cfg.Sites {
		if !strings.Contains(s, code) {
			t.Errorf("table 1 output missing site %s:\n%s", code, s)
		}
	}
	if !strings.Contains(s, "#Target") {
		t.Error("table 1 must print the target column")
	}
}

func TestRunTable2AndMatrix(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"cl"}
	if err := RunTable2(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, name := range []string{"SB-CLASSIFIER", "SB-ORACLE", "BFS", "DFS", "RANDOM", "FOCUSED", "TP-OFF", "TRES"} {
		if !strings.Contains(s, name) {
			t.Errorf("table 2 output missing crawler %s:\n%s", name, s)
		}
	}
	if !strings.Contains(s, "early stopping") {
		t.Error("table 2 must include the early-stopping rows")
	}
}

func TestRunTable3(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"cn"}
	if err := RunTable3(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "volume") {
		t.Error("table 3 header missing")
	}
}

func TestRunTable4Variants(t *testing.T) {
	for _, run := range []func(Config) error{RunTable4Alpha, RunTable4Ngram, RunTable4Theta} {
		var out bytes.Buffer
		cfg := tinyConfig(&out)
		cfg.Sites = []string{"cl", "qa"}
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
		if out.Len() == 0 {
			t.Error("empty table 4 output")
		}
	}
}

func TestRunTable5(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"cl"}
	if err := RunTable5(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, v := range []string{"URL_ONLY-LR", "URL_CONT-PA", "MR"} {
		if !strings.Contains(s, v) {
			t.Errorf("table 5 missing %q:\n%s", v, s)
		}
	}
}

func TestRunTable6AndFig5(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"cl", "nc"}
	if err := RunTable6(cfg); err != nil {
		t.Fatal(err)
	}
	if err := RunFigure5(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "top-10") {
		t.Error("figure 5 output missing")
	}
}

func TestRunTable7(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	if err := RunTable7(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, code := range []string{"be", "is", "wh"} {
		if !strings.Contains(s, code) {
			t.Errorf("table 7 missing site %s", code)
		}
	}
}

func TestRunConfusion(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"cl"}
	if err := RunConfusion(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Neither") {
		t.Error("confusion matrices must render all classes")
	}
}

func TestRunEarlyStopAndFig15(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"cl"}
	if err := RunEarlyStop(cfg); err != nil {
		t.Fatal(err)
	}
	if err := RunFigure15(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "early stop") {
		t.Error("fig15 output missing")
	}
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

func TestRunSearchEngines(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"ju"}
	if err := RunSearchEngines(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "crawler") {
		t.Error("search engine report missing")
	}
}

func TestRunAblations(t *testing.T) {
	for _, run := range []func(Config) error{
		RunAblationPolicy, RunAblationReward, RunAblationDim, RunAblationBatch,
	} {
		var out bytes.Buffer
		cfg := tinyConfig(&out)
		cfg.Sites = []string{"cl"}
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
		if out.Len() == 0 {
			t.Error("empty ablation output")
		}
	}
}

func TestRunRevisitExtension(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"nc"}
	if err := RunRevisit(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, p := range []string{"round-robin", "thompson", "sleeping-bandit"} {
		if !strings.Contains(s, p) {
			t.Errorf("revisit report missing policy %q:\n%s", p, s)
		}
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

// TestRunResilience smoke-tests the robustness table: with retries on,
// recall stays pinned to the fault-free baseline at every injected fault
// rate, so the report must never show a retry-on row losing targets.
func TestRunResilience(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Sites = []string{"cl"}
	if err := RunResilience(cfg); err != nil {
		t.Fatalf("RunResilience: %v\n%s", err, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "Resilience") {
		t.Errorf("missing report header:\n%s", report)
	}
	for _, col := range []string{"rate", "retry", "recall%", "retries", "failed"} {
		if !strings.Contains(report, col) {
			t.Errorf("report missing column %q:\n%s", col, report)
		}
	}
	// Retry-on rows must show full recall (the convergence property); the
	// retry-off 20% row should visibly lose targets on any non-trivial site.
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, " on ") && !strings.Contains(line, "100.0%") {
			t.Errorf("retry-on row lost targets: %s", line)
		}
	}
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
		if err := RunTable1(cfg); err != nil {
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
	if err != nil || len(segs) == 0 {
		t.Errorf("no segments written: %v %v", segs, err)
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
	for _, id := range []string{"table2", "table6", "earlystop", "fig4"} {
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
