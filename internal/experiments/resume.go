package experiments

// The resume experiment is the CLI's end-to-end checkpointing smoke: for a
// few sites and strategies it crawls to completion, re-crawls with a hard
// budget into a persistent store ("kill at step k"), then resumes over the
// store with the full budget and verifies the resumed run is byte-identical
// to the uninterrupted one — the determinism gate of the persistent-store
// subsystem, exercised through real segment files on disk.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"sbcrawl/internal/core"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/sitegen"
	"sbcrawl/internal/store"
	"sbcrawl/internal/webserver"
)

// resumeSites keeps the smoke quick; -sites overrides.
var resumeSites = []string{"ju", "cn"}

// RunResume executes the kill-and-resume table.
func RunResume(cfg Config) error {
	cfg = cfg.withDefaults()
	codes := cfg.Sites
	if codes == nil {
		codes = resumeSites
	}
	dir := cfg.StorePath
	if dir == "" {
		tmp, err := os.MkdirTemp("", "sbcrawl-resume-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	fmt.Fprintf(cfg.Out, "Kill-and-resume equivalence (store: %s)\n", dir)
	fmt.Fprintf(cfg.Out, "%-6s %-14s %10s %10s %10s %10s  %s\n",
		"site", "strategy", "requests", "killed-at", "replayed", "fetched", "identical")
	for _, code := range codes {
		for _, name := range []string{"SB-CLASSIFIER", "BFS"} {
			row, err := resumeOne(cfg, dir, code, name)
			if err != nil {
				return err
			}
			fmt.Fprintln(cfg.Out, row)
		}
	}
	return nil
}

// resumeCrawler builds a fresh crawler instance (crawlers carry run state,
// so each leg needs its own).
func resumeCrawler(name string, seed int64) core.Crawler {
	if name == "BFS" {
		return core.NewBFS()
	}
	return core.NewSB(core.SBConfig{Seed: seed})
}

// resumeEnv wires a fresh Env over the site, optionally store-backed.
func resumeEnv(site *sitegen.Site, backend store.Backend, budget int) (*core.Env, *fetch.Replay) {
	replay := fetch.NewReplay(fetch.NewSim(webserver.New(site)))
	if backend != nil {
		replay.SetBackend(backend)
	}
	return &core.Env{
		Root:        site.Root(),
		Fetcher:     replay,
		MaxRequests: budget,
	}, replay
}

// resumeOne returns one row of the table. A failed close of its store (the
// final flush or compaction) is its error unless a leg already failed.
func resumeOne(cfg Config, dir, code, strategy string) (row string, err error) {
	site, err := generate(cfg, code)
	if err != nil {
		return "", err
	}

	// Uninterrupted reference.
	env, _ := resumeEnv(site, nil, 0)
	full, err := resumeCrawler(strategy, cfg.Seed).Run(env)
	if err != nil {
		return "", err
	}

	// Kill at half the budget, into a per-(site,strategy) store.
	st, err := store.Open(filepath.Join(dir, code+"-"+strategy))
	if err != nil {
		return "", err
	}
	defer func() {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("experiments: closing store %s-%s: %w", code, strategy, cerr)
		}
	}()
	killAt := full.Requests / 2
	if killAt < 1 {
		killAt = 1
	}
	kenv, _ := resumeEnv(site, st, killAt)
	if _, err := resumeCrawler(strategy, cfg.Seed).Run(kenv); err != nil {
		return "", err
	}
	if err := st.Sync(); err != nil {
		return "", err
	}

	// Resume over the store with the full budget.
	renv, replay := resumeEnv(site, st, 0)
	resumed, err := resumeCrawler(strategy, cfg.Seed).Run(renv)
	if err != nil {
		return "", err
	}
	identical := reflect.DeepEqual(resumed.Trace, full.Trace) &&
		reflect.DeepEqual(resumed.Targets, full.Targets) &&
		resumed.Requests == full.Requests
	verdict := "yes"
	if !identical {
		verdict = "NO"
	}
	row = fmt.Sprintf("%-6s %-14s %10d %10d %10d %10d  %s",
		code, strategy, full.Requests, killAt, replay.Hits(), replay.Misses(), verdict)
	if !identical {
		return row, fmt.Errorf("experiments: resume diverged for %s/%s", code, strategy)
	}
	return row, nil
}
