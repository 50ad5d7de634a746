package sbcrawl

// Tests for the shared-store public surface grown for the crawld daemon:
// the long-lived Store handle (OpenStore / Config.Store), durable progress
// introspection (SiteProgress), the in-process Progress observer and typed
// store-lock errors.

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbcrawl/internal/core"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/store"
)

// TestSharedStoreHandle runs concurrent durable crawls through one open
// Store handle — the daemon pattern, where per-call StorePath opens would
// collide on the writer lock — and checks the results match the per-call
// path byte for byte.
func TestSharedStoreHandle(t *testing.T) {
	site, err := GenerateSite("cl", 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: StrategySB, Seed: 4, MaxRequests: 60}
	baseline, err := CrawlSite(site, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Path() != dir {
		t.Fatalf("Path() = %q, want %q", st.Path(), dir)
	}

	// While the handle is open, the directory has exactly one writer.
	if _, err := OpenStore(dir); !errors.Is(err, ErrStoreLocked) {
		t.Fatalf("second OpenStore error = %v, want ErrStoreLocked", err)
	}
	sharedCfg := cfg
	sharedCfg.Store = st
	results := make([]*Result, 4)
	errs := make([]error, 4)
	done := make(chan int)
	for i := range results {
		go func(i int) {
			results[i], errs[i] = CrawlSite(site, sharedCfg)
			done <- i
		}(i)
	}
	for range results {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shared-store crawl %d: %v", i, err)
		}
		if !reflect.DeepEqual(outcome(results[i]), baseline) {
			t.Errorf("shared-store crawl %d diverged from store-less baseline", i)
		}
	}

	// A Config naming both the handle and a different path is a mistake,
	// not a silent preference.
	badCfg := sharedCfg
	badCfg.StorePath = t.TempDir()
	if _, err := CrawlSite(site, badCfg); err == nil || !strings.Contains(err.Error(), "StorePath") {
		t.Fatalf("Store/StorePath mismatch error = %v, want a mismatch error", err)
	}
}

// TestStoreRecords pins the daemon-bookkeeping namespace: private records
// round-trip through the store and are invisible to other namespaces.
func TestStoreRecords(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a, b := st.Records("crawld"), st.Records("other")
	if err := a.Put("sess|1", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.AppendValue(nil, "sess|1"); !ok || string(got) != "alpha" {
		t.Fatalf("Get = %q, %v; want alpha", got, ok)
	}
	if _, ok := b.AppendValue(nil, "sess|1"); ok {
		t.Fatal("record leaked across namespaces")
	}
	if keys := a.Keys("sess|"); len(keys) != 1 || keys[0] != "sess|1" {
		t.Fatalf("Keys = %v, want [sess|1]", keys)
	}
}

// TestSiteProgressObserved drives one crawl through its whole durable
// lifecycle: Progress observes checkpoints in-process at the configured
// cadence, a mid-flight kill leaves SiteProgress reporting the checkpointed
// partial state, completion flips it to Done with final tallies, and the
// resumed result is byte-identical to an uninterrupted run.
func TestSiteProgressObserved(t *testing.T) {
	site, err := GenerateSite("cn", 0.01, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: StrategySB, Seed: 3}
	baseline, err := CrawlSite(site, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if p := st.SiteProgress(site, cfg); p != (CrawlProgress{}) {
		t.Fatalf("cold store reports progress %+v", p)
	}

	// Kill via the Progress observer: cancel after the second checkpoint,
	// so the crawl dies mid-flight at a deterministic durable state.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var observed atomic.Int32
	killCfg := cfg
	killCfg.Store = st
	killCfg.CheckpointEvery = 8
	killCfg.Progress = func(p CrawlProgress) {
		if p.Done {
			t.Error("Progress reported Done mid-crawl")
		}
		if p.Requests <= 0 {
			t.Errorf("Progress reported non-positive requests: %+v", p)
		}
		if observed.Add(1) == 2 {
			cancel()
		}
	}
	if _, err := CrawlSiteCtx(ctx, site, killCfg); err != nil {
		t.Fatal(err)
	}
	if n := observed.Load(); n < 2 {
		t.Fatalf("observed %d checkpoints, want >= 2", n)
	}
	p := st.SiteProgress(site, cfg)
	if p.Done {
		t.Fatal("killed crawl reports Done")
	}
	if p.Requests < 16 {
		t.Fatalf("killed crawl checkpointed %d requests, want >= 16 (two 8-request checkpoints)", p.Requests)
	}

	// Resume to completion over the same handle.
	resCfg := cfg
	resCfg.Store = st
	resCfg.Resume = true
	resumed, err := CrawlSite(site, resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outcome(resumed), baseline) {
		t.Error("resumed crawl diverged from uninterrupted run")
	}
	p = st.SiteProgress(site, cfg)
	if !p.Done {
		t.Fatal("completed crawl not reported Done")
	}
	if p.Requests != baseline.Requests || p.Targets != len(baseline.Targets) {
		t.Fatalf("done progress = %+v, want requests=%d targets=%d", p, baseline.Requests, len(baseline.Targets))
	}
}

// TestFailedStoreCloseIsReturned: when the per-call store cannot be closed
// cleanly — here the close-time compaction meets a segment cut short under
// it — every entry point that opened Config.StorePath reports the failure
// beside its result, and the directory is left unlocked for the next run.
func TestFailedStoreCloseIsReturned(t *testing.T) {
	site, err := GenerateSite("cl", 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(site.Handler())
	defer ts.Close()
	// A checkpoint per request supersedes enough records that Close compacts.
	sim := Config{Strategy: StrategyBFS, MaxRequests: 60, CheckpointEvery: 1}
	live := sim
	live.Root, live.Politeness = ts.URL+"/", time.Millisecond
	for _, c := range []struct {
		name string
		cfg  Config
		run  func(cfg Config) (gotResult bool, err error)
	}{
		{"CrawlSite", sim, func(cfg Config) (bool, error) {
			res, err := CrawlSite(site, cfg)
			return res != nil, err
		}},
		{"CrawlSites", sim, func(cfg Config) (bool, error) {
			res, err := CrawlSites([]*Site{site}, cfg, FleetOptions{})
			return res != nil && res.Completed == 1, err
		}},
		{"Crawl", live, func(cfg Config) (bool, error) {
			res, err := Crawl(cfg)
			return res != nil, err
		}},
		{"CrawlMany", live, func(cfg Config) (bool, error) {
			res, err := CrawlMany([]Config{cfg}, FleetOptions{})
			return res != nil && res.Completed == 1, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.StorePath = t.TempDir()
			if _, err := c.run(cfg); err != nil {
				t.Fatal(err)
			}
			// Second run over the warm store: at its first checkpoint, cut
			// the first run's segments short. Pages it has replayed by then
			// stay live in them, so compaction cannot read them back.
			segs, err := filepath.Glob(filepath.Join(cfg.StorePath, "*.seg"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments to damage: %v, %v", segs, err)
			}
			var once sync.Once
			cfg.Progress = func(CrawlProgress) {
				once.Do(func() {
					for _, seg := range segs {
						if err := os.Truncate(seg, 10); err != nil {
							t.Error(err)
						}
					}
				})
			}
			gotResult, err := c.run(cfg)
			if err == nil || !strings.Contains(err.Error(), "closing store") {
				t.Fatalf("err = %v, want the failed close", err)
			}
			if !gotResult {
				t.Error("the finished crawl's result was dropped with the close error")
			}
			st, err := OpenStore(cfg.StorePath)
			if err != nil {
				t.Fatalf("store still locked after the failed close: %v", err)
			}
			st.Close()
		})
	}
}

// TestStoreWriteErrorIsReported: a crawl whose store refuses every write —
// the *store.Store under an open handle closed — still completes with the
// plain crawl's outcome, and its StoreStats report the refused write, for a
// single crawl and for a fleet. A healthy store reports none.
func TestStoreWriteErrorIsReported(t *testing.T) {
	site, err := GenerateSite("cl", 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: StrategyBFS, MaxRequests: 60, CheckpointEvery: 1}
	plain, err := CrawlSite(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	healthy := cfg
	healthy.StorePath = t.TempDir()
	res, err := CrawlSite(site, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store == nil || res.Store.WriteErr != nil {
		t.Fatalf("healthy store: Store = %+v, want no write error", res.Store)
	}

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.st.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	res, err = CrawlSite(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store == nil || res.Store.WriteErr == nil {
		t.Fatalf("closed store: Store = %+v, want a write error", res.Store)
	}
	if !reflect.DeepEqual(outcome(res), outcome(plain)) {
		t.Error("a crawl through a store refusing writes differs from the plain crawl")
	}
	many, err := CrawlSites([]*Site{site}, cfg, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if many.Store == nil || many.Store.WriteErr == nil {
		t.Fatalf("closed store, fleet: Store = %+v, want a write error", many.Store)
	}

	// A refused checkpoint and a refused done-record are each reported.
	refused := errors.New("refused")
	pc := &persistedCrawl{
		records: refusingPuts{st.st, refused},
		replay:  fetch.NewReplay(nil),
		sink:    &storeSink{b: refusingPuts{st.st, refused}},
	}
	pc.sink.Checkpoint(core.Checkpoint{})
	if got := pc.stats(false).WriteErr; got != refused {
		t.Errorf("refused checkpoint: WriteErr = %v", got)
	}
	pc.sink.err = nil
	pc.finish(&core.Result{})
	if got := pc.stats(false).WriteErr; got != refused {
		t.Errorf("refused done-record: WriteErr = %v", got)
	}
}

// refusingPuts is a store.Backend whose Puts fail with err.
type refusingPuts struct {
	store.Backend
	err error
}

func (r refusingPuts) Put(string, []byte) error { return r.err }
