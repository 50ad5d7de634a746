// Command benchmark is the repository's one trusted benchmark: six workloads
// over the crawl engine, the fleet, the fabric, the store and the crawld
// daemon, each reporting end-to-end metrics (tracing off) and per-layer
// metrics (one traced pass plus layer replays). See README.md.
//
//	go run ./benchmark                         every workload, both runs, every metric
//	go run ./benchmark -workload sb-cpu        one workload
//	go run ./benchmark -out base.json          also write the result file
//	go run ./benchmark -compare a.json b.json  one row per (metric, workload)
//
// The driver contract form is
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// whose last line of output is one JSON object {correct, attempted, failed,
// metrics}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// detailPrefix marks the line on which a child process hands its full
// result (with sample counts and spreads) to the parent running the set.
const detailPrefix = "#detail "

func main() {
	var (
		workload = flag.String("workload", "", "run one workload ("+strings.Join(allWorkloads, ", ")+"); empty runs the full set, one child process each")
		seed     = flag.Int64("seed", 1, "drives the crawl seeds, the fault plan and the session seeds (the sites are part of the frozen workload)")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed passes of one run measure")
		trace    = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics from a traced pass; any other value: as 1, and write the spans to that file")
		scale    = flag.String("scale", "full", "workload sizes: full (the frozen calibration) or tiny (smoke test)")
		out      = flag.String("out", "", "full set only: write the result file here")
		dir      = flag.String("dir", ".bench_tmp", "scratch directory for store files, removed afterwards")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	)
	flag.Parse()
	// min(nproc, 4): recorded in the result file; -compare refuses files that differ.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	err := func() error {
		switch {
		case *manifest:
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(buildManifest())
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare wants two result files")
			}
			return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		case *workload == "":
			return runSet(*seed, *seconds, *trace, *scale, *out, *dir)
		}
		return runOne(*workload, *seed, *seconds, *trace, *scale, *dir)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver-contract form: one workload in this process.
func runOne(workload string, seed int64, seconds float64, trace, scale, dir string) error {
	known := false
	for _, w := range allWorkloads {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(allWorkloads, ", "))
	}
	p, err := paramsFor(scale)
	if err != nil {
		return err
	}
	cfg := runConfig{workload: workload, p: p, seed: seed, seconds: seconds, traced: trace != "0", dir: dir}
	if trace != "0" && trace != "1" {
		cfg.spanFile = trace
	}
	defer os.RemoveAll(dir)
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", detailPrefix, detail)
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]contractMetric{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = contractMetric{v.Value, v.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their check", workload, res.Failed, res.Attempted)
	}
	return nil
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       envStamp          `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Params    params            `json:"params"`
	Workloads []*workloadResult `json:"workloads"`
}

// runSet runs every workload twice — tracing off, then traced — each in a
// fresh child process, so peak RSS and warm-up are per workload.
func runSet(seed int64, seconds float64, trace, scale, out, dir string) error {
	p, err := paramsFor(scale)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: stampEnv(), Seed: seed, Seconds: seconds, Params: p}
	fmt.Printf("commit %s, %s, nproc %d, GOMAXPROCS %d, %s, load %.2f\n", file.Env.Commit, file.Env.GoVersion,
		file.Env.NProc, file.Env.GOMAXPROCS, file.Env.CPUModel, file.Env.LoadBefore)
	failed := false
	for _, w := range allWorkloads {
		for _, traced := range []string{"0", "1"} {
			if traced == "1" && trace != "0" && trace != "1" {
				traced = trace + "." + w + ".csv"
			}
			cmd := exec.Command(exe, "-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", traced, "-scale", scale, "-dir", dir)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			sc := bufio.NewScanner(&stdout)
			sc.Buffer(nil, 1<<24)
			for sc.Scan() {
				line := sc.Text()
				switch {
				case strings.HasPrefix(line, detailPrefix):
					var res workloadResult
					if err := json.Unmarshal([]byte(strings.TrimPrefix(line, detailPrefix)), &res); err != nil {
						return fmt.Errorf("%s: unreadable detail line: %w", w, err)
					}
					file.Workloads = append(file.Workloads, &res)
				case strings.HasPrefix(line, "{"): // the contract line, for the driver only
				default:
					fmt.Println(line)
				}
			}
			if runErr != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %s): %v\n", w, traced, runErr)
				failed = true
			}
		}
	}
	file.Env.LoadAfter = load1()
	fmt.Printf("load after %.2f\n", file.Env.LoadAfter)
	if out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}
