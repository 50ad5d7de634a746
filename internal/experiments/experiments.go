// Package experiments regenerates every table and figure of the paper's
// evaluation section over the synthetic website substrate. Each experiment
// is addressable by the paper artifact it reproduces (table1 … fig15) and
// prints the same rows or series the paper reports; All is the experiment
// index, and `crawlbench -list` prints it.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"sbcrawl/internal/core"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/fleet"
	"sbcrawl/internal/metrics"
	"sbcrawl/internal/sitegen"
	"sbcrawl/internal/store"
	"sbcrawl/internal/webserver"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies the paper's site sizes (default 0.002 ≈ 1/500).
	Scale float64
	// Seed drives site generation and stochastic crawlers.
	Seed int64
	// Runs averages stochastic crawlers over this many repetitions
	// (the paper uses 15; default 3 keeps laptop runs quick).
	Runs int
	// Sites restricts the experiment to these site codes (nil = the
	// experiment's own default set).
	Sites []string
	// MaxPages caps per-site page counts (0 = none).
	MaxPages int
	// Workers is the number of sites processed concurrently (values < 1
	// mean the sequential default of 1). Reports are identical whatever
	// the value: per-site work is independent and results are assembled
	// in site order.
	Workers int
	// Out receives the report (default os.Stdout).
	Out io.Writer
	// CSVDir, when set, receives figure series as CSV files.
	CSVDir string
	// StorePath, when set, backs every site's replay database with the
	// persistent crawl store at that directory (see internal/store): a
	// second run of the same experiment replays previously fetched
	// responses from disk. Open the handle once with OpenStore before
	// running experiments.
	StorePath string

	// st is the open store handle behind StorePath (see OpenStore).
	st *store.Store
}

// OpenStore opens the Config's StorePath and attaches the handle that
// buildSite wires into every replay database. The returned closer flushes
// and compacts; callers run it after the last experiment and treat its
// error as the run's. When StorePath is empty nothing is opened and the
// closer is a no-op.
func (c *Config) OpenStore() (func() error, error) {
	if c.StorePath == "" {
		return func() error { return nil }, nil
	}
	st, err := store.Open(c.StorePath)
	if err != nil {
		return nil, err
	}
	c.st = st
	return st.Close, nil
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.002
	}
	if c.Runs <= 0 {
		c.Runs = 3
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// forEachSite fans work out over the site codes with cfg.Workers concurrent
// workers, failing fast on the first error. Result i belongs to codes[i],
// so callers print reports in site order and the output is byte-identical
// whatever the worker count.
func forEachSite[T any](cfg Config, codes []string, work func(code string) (T, error)) ([]T, error) {
	out := make([]T, len(codes))
	err := fleet.Do(context.Background(), cfg.Workers, len(codes), func(i int) error {
		v, err := work(codes[i])
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Experiment reproduces one paper artifact.
type Experiment struct {
	// ID is the artifact handle: "table1", "table2", "fig4", …
	ID string
	// Title describes what is regenerated.
	Title string
	// Run executes the experiment and writes its report.
	Run func(cfg Config) error
}

// All lists every experiment in paper order.
var All = []Experiment{
	{"table1", "Main characteristics of the 18 websites", RunTable1},
	{"table2", "% of requests to retrieve 90% of targets (+ early stopping)", RunTable2},
	{"table3", "% of non-target volume before 90% of target volume", RunTable3},
	{"fig4", "Crawler performance curves (Figures 4 and 7)", RunFigure4},
	{"table4-alpha", "Hyper-parameter study: exploration coefficient α", RunTable4Alpha},
	{"table4-ngram", "Hyper-parameter study: n-gram order", RunTable4Ngram},
	{"table4-theta", "Hyper-parameter study: similarity threshold θ", RunTable4Theta},
	{"table5", "URL classifier variants (models × feature sets) + MR", RunTable5},
	{"table6", "Mean and STD of non-zero action rewards", RunTable6},
	{"fig5", "Top-10 tag-path group rewards", RunFigure5},
	{"table7", "Statistics-dataset yield of retrieved targets", RunTable7},
	{"confusion", "URL classifier confusion matrices (Tables 8–16)", RunConfusion},
	{"earlystop", "Early stopping: saved requests vs lost targets", RunEarlyStop},
	{"fig15", "Early-stopping cut visualization (in, ju)", RunFigure15},
	{"searchengines", "Search-engine coverage gap (Sec. 4.2)", RunSearchEngines},
	{"ablation-policy", "Ablation: AUER vs UCB1 vs ε-greedy vs Thompson", RunAblationPolicy},
	{"ablation-reward", "Ablation: novelty reward vs raw target count", RunAblationReward},
	{"ablation-dim", "Ablation: projection dimension D = 2^m", RunAblationDim},
	{"ablation-batch", "Ablation: classifier batch size b", RunAblationBatch},
	{"speculation", "Speculative-fetch hit rates per strategy (adaptive window diagnostics)", RunSpeculation},
	{"resume", "Kill-and-resume equivalence over the persistent store (Sec. 4.4 durable)", RunResume},
	{"resilience", "Crawl yield under injected faults: strategies × fault rate × retry on/off", RunResilience},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// siteEnv bundles one generated site with its crawl Env and ground truth.
type siteEnv struct {
	code   string
	site   *sitegen.Site
	env    *core.Env
	stats  sitegen.Stats
	totals metrics.SiteTotals
}

// generate builds one site at the config's scale, seed and page cap.
func generate(cfg Config, code string) (*sitegen.Site, error) {
	profile, ok := sitegen.ProfileByCode(code)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown site %q", code)
	}
	return sitegen.Generate(sitegen.Config{
		Profile: profile, Scale: cfg.Scale, Seed: cfg.Seed, MaxPages: cfg.MaxPages,
	}), nil
}

// buildSite returns the site env of the code at the config's scale, seed and
// page cap, built once per generation (siteMemo) unless a durable store backs
// the replay database: a report's Run builds each of its sites, and
// consecutive reports of one configuration — the claim table's reports of one
// seed — share them. No report mutates a siteEnv (those that vary the Env
// copy it), and a warm replay database serves the bytes a cold one would
// fetch, so sharing changes no report.
func buildSite(cfg Config, code string) (*siteEnv, error) {
	if cfg.st != nil {
		return newSiteEnv(cfg, code)
	}
	gen := siteGen{cfg.Scale, cfg.Seed, cfg.MaxPages}
	siteMemo.mu.Lock()
	if siteMemo.sites == nil || siteMemo.gen != gen {
		siteMemo.gen, siteMemo.sites = gen, map[string]*memoSite{}
	}
	m := siteMemo.sites[code]
	if m == nil {
		m = &memoSite{}
		siteMemo.sites[code] = m
	}
	siteMemo.mu.Unlock()
	m.once.Do(func() { m.se, m.err = newSiteEnv(cfg, code) })
	return m.se, m.err
}

// siteMemo holds the site envs of the latest generation only: a call with
// another generation drops them, so the memo never pins more than one
// configuration's sites and their replay bodies.
var siteMemo struct {
	mu    sync.Mutex
	gen   siteGen
	sites map[string]*memoSite
}

// siteGen is what a generated site and its reference crawl depend on besides
// the code.
type siteGen struct {
	scale    float64
	seed     int64
	maxPages int
}

// memoSite is one code's site env, built by the first caller.
type memoSite struct {
	once sync.Once
	se   *siteEnv
	err  error
}

// newSiteEnv generates a site at the config's scale and wires the crawl Env:
// a replay-cached simulated fetcher (the local response database of
// Sec. 4.4, shared by all crawlers) plus the oracle hooks.
func newSiteEnv(cfg Config, code string) (*siteEnv, error) {
	site, err := generate(cfg, code)
	if err != nil {
		return nil, err
	}
	replay := fetch.NewReplay(fetch.NewSim(webserver.New(site)))
	if cfg.st != nil {
		// Durable replay: namespace the site's responses by everything
		// that shapes its content, so only an identical regeneration
		// replays them.
		ns := fmt.Sprintf("x|%s|%g|%d|%d|r|", code, cfg.Scale, cfg.Seed, cfg.MaxPages)
		replay.SetBackend(store.Prefixed(cfg.st, ns))
	}
	class, benefit := sitegen.Oracles(site.Lookup)
	env := &core.Env{
		Root:          site.Root(),
		Fetcher:       replay,
		OracleClass:   class,
		OracleBenefit: benefit,
		OracleTargets: site.TargetURLs(),
	}
	se := &siteEnv{code: code, site: site, env: env, stats: site.ComputeStats()}

	// Reference totals come from an exhaustive BFS (the paper computes
	// partial-site metrics on the BFS-visited subset).
	ref, err := core.NewBFS().Run(env)
	if err != nil {
		return nil, err
	}
	se.totals = metrics.TotalsFromResult(ref, se.stats.Available)
	return se, nil
}

// scaledWarmup is TP-OFF's offline phase length: the paper's 3 000 pages
// scaled to the generated site sizes, floored so tiny sites still warm up.
func scaledWarmup(cfg Config) int {
	w := int(3000 * cfg.Scale * 5)
	if w < 30 {
		w = 30
	}
	return w
}

// scaledTresLimit models TRES's 1-minute-per-request wall: in the paper it
// completes only the four smallest fully-crawled sites (< ~40k pages).
func scaledTresLimit(cfg Config) int {
	l := int(40000 * cfg.Scale)
	if l < 60 {
		l = 60
	}
	return l
}

// crawlerSet builds the Section 4.3 lineup for one site. TRES and SB-ORACLE
// join only on fully crawled sites, as in the paper.
func crawlerSet(cfg Config, se *siteEnv, run int) []core.Crawler {
	seed := cfg.Seed + int64(run)*101
	fullyCrawled := se.site.Profile.FullyCrawled
	crawlers := []core.Crawler{
		core.NewSB(core.SBConfig{Seed: seed}),
	}
	if fullyCrawled {
		crawlers = append(crawlers, core.NewSB(core.SBConfig{Oracle: true, Seed: seed}))
	}
	crawlers = append(crawlers,
		core.NewFocused(50),
		core.NewTPOff(scaledWarmup(cfg), seed),
		core.NewBFS(),
		core.NewDFS(),
		core.NewRandom(seed),
	)
	if fullyCrawled {
		crawlers = append(crawlers, core.NewTRES(scaledTresLimit(cfg)))
	}
	crawlers = append(crawlers, core.NewOmniscient())
	return crawlers
}

// CrawlerOrder is the display order of Tables 2 and 3.
var CrawlerOrder = []string{
	"SB-ORACLE", "SB-CLASSIFIER", "FOCUSED", "TP-OFF", "BFS", "DFS", "RANDOM",
	"TRES", "OMNISCIENT",
}

// stochastic reports whether a crawler's runs vary with the seed (and so
// should be averaged over cfg.Runs, as the paper averages over 15).
func stochastic(name string) bool {
	switch name {
	case "SB-ORACLE", "SB-CLASSIFIER", "RANDOM", "TRES", "TP-OFF":
		return true
	}
	return false
}

// runMatrix crawls one site with the full lineup, averaging stochastic
// crawlers, and returns one representative Result per crawler name plus the
// per-crawler averaged Table 2/3 metrics.
type matrixCell struct {
	Result     *core.Result
	RequestPct float64
	VolumePct  float64
}

func runMatrix(cfg Config, se *siteEnv) (map[string]*matrixCell, error) {
	cells := make(map[string]*matrixCell)
	type acc struct {
		req, vol []float64
	}
	accs := make(map[string]*acc)
	for run := 0; run < cfg.Runs; run++ {
		for _, c := range crawlerSet(cfg, se, run) {
			if run > 0 && !stochastic(c.Name()) {
				continue
			}
			res, err := c.Run(se.env)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", c.Name(), se.code, err)
			}
			if accs[c.Name()] == nil {
				accs[c.Name()] = &acc{}
			}
			a := accs[c.Name()]
			a.req = append(a.req, metrics.RequestPct90(res.Trace, se.totals))
			a.vol = append(a.vol, metrics.VolumePct90(res.Trace, se.totals))
			if cells[c.Name()] == nil {
				cells[c.Name()] = &matrixCell{Result: res}
			}
		}
	}
	for name, a := range accs {
		cells[name].RequestPct = metrics.Mean(a.req)
		cells[name].VolumePct = metrics.Mean(a.vol)
	}
	return cells, nil
}

// sitesOrDefault resolves the site list for an experiment.
func sitesOrDefault(cfg Config, def []string) []string {
	if len(cfg.Sites) > 0 {
		return cfg.Sites
	}
	return def
}

// allCodes lists the 18 site codes in Table 1 order.
func allCodes() []string {
	out := make([]string, 0, len(sitegen.Profiles))
	for _, p := range sitegen.Profiles {
		out = append(out, p.Code)
	}
	return out
}

// fmtPct renders a metric cell, using the paper's +∞ notation.
func fmtPct(v float64) string {
	if math.IsInf(v, 1) {
		return "+inf"
	}
	return fmt.Sprintf("%.1f", v)
}

// sortedKeys returns map keys in sorted order (stable reports).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
