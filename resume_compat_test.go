package sbcrawl

// Cross-version gates for the persistence format: records stamped with a
// future format version are refused cleanly, with the typed error; a
// checkpoint is one small record of counters; and the full + byte-range-delta
// checkpoint pairs earlier builds wrote are still resolved by progress reads.

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sbcrawl/internal/codec"
	"sbcrawl/internal/core"
	"sbcrawl/internal/store"
)

// TestCodecStoreRefusesUnknownVersion: records written by a future format
// version fail with the typed *codec.UnknownVersionError — never a
// misparse into a wrong value.
func TestCodecStoreRefusesUnknownVersion(t *testing.T) {
	future := []byte{0x00, 0x63, 0x01, 0x00, 0x00} // tag, version 0x63, KindResponse
	_, err := core.DecodeResult(append([]byte{0x00, 0x63, 0x03}, future[3:]...))
	if !errors.Is(err, codec.ErrUnknownVersion) {
		t.Fatalf("result decode: %v", err)
	}
	var uv *codec.UnknownVersionError
	if !errors.As(err, &uv) || uv.Version != 0x63 {
		t.Fatalf("untyped unknown-version error: %v", err)
	}
	// End to end: a done-record from a "future build" must not
	// short-circuit the crawl — progress reads refuse it cleanly.
	site, err2 := GenerateSite("ab", 0.01, 2)
	if err2 != nil {
		t.Fatal(err2)
	}
	dir := t.TempDir()
	cfg := Config{Strategy: StrategyBFS, Seed: 1, MaxRequests: 48}
	cs, err2 := OpenStore(dir)
	if err2 != nil {
		t.Fatal(err2)
	}
	records := store.Prefixed(cs.st, simNamespace(site)+"|c|")
	fp := cfgFingerprint(cfg, site.Root())
	if err := records.Put("done|"+fp, future); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	st, err2 := OpenStore(dir)
	if err2 != nil {
		t.Fatal(err2)
	}
	defer st.Close()
	if prog := st.SiteProgress(site, cfg); prog.Done {
		t.Fatalf("future-version done-record accepted: %+v", prog)
	}
}

// TestCheckpointRecordIsCounters: a checkpoint is one small record under
// "ckpt|" — the engine's counters, no frontier, no delta beside it — and it
// is what SiteProgress reports once the done-record is gone; resume over the
// store stays byte-identical.
func TestCheckpointRecordIsCounters(t *testing.T) {
	site, err := GenerateSite("cn", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: StrategyBFS, Seed: 3}
	baseline, err := CrawlSite(site, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	killCfg := cfg
	killCfg.MaxRequests = 30
	killCfg.CheckpointEvery = 4
	killCfg.StorePath = dir
	if _, err := CrawlSite(site, killCfg); err != nil {
		t.Fatal(err)
	}

	fp := cfgFingerprint(killCfg, site.Root())
	cs, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	records := store.Prefixed(cs.st, simNamespace(site)+"|c|")
	raw, ok := records.AppendValue(nil, "ckpt|"+fp)
	if !ok {
		t.Fatal("no checkpoint written")
	}
	if len(raw) >= 64 {
		t.Errorf("checkpoint record is %d bytes, want < 64: it holds more than counters", len(raw))
	}
	cp, err := core.DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Requests != 28 || cp.Frontier != nil {
		t.Errorf("checkpoint = %+v, want the one at request 28 with no frontier", cp)
	}
	if keys := records.Keys("ckptd|"); len(keys) != 0 {
		t.Errorf("delta checkpoints written: %v", keys)
	}
	// Truncate the done-record (the budget-exhausted run recorded one), so
	// the progress read must fall back to the checkpoint.
	if err := records.Put("done|"+fp, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	prog := st.SiteProgress(site, killCfg)
	st.Close()
	if want := (CrawlProgress{Requests: cp.Requests, Targets: cp.Targets}); prog != want {
		t.Fatalf("SiteProgress = %+v, want %+v", prog, want)
	}

	resCfg := cfg
	resCfg.StorePath = dir
	resCfg.Resume = true
	resumed, err := CrawlSite(site, resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outcome(resumed), baseline) {
		t.Error("resume over the checkpointed store diverged from uninterrupted run")
	}
}

// A "ckpt|" + "ckptd|" pair exactly as commit 2b61bdf — the last build that
// wrote delta checkpoints — left it: BFS on GenerateSite("cn", 0.001, 3),
// CheckpointEvery 4, budget 22. The full record is the checkpoint at request
// 4 with a 173-byte frontier blob; the delta advances it to request 20.
const (
	parentFullCheckpoint = "00010208000000da601000ae0100010401052968747470733a2f2f7777772e636e69732e66722f66722f72656368657263" +
		"68652d616e6e75656c2f332a68747470733a2f2f7777772e636e69732e66722f66722f726170706f72742d636f6d6d657263" +
		"652f31302868747470733a2f2f7777772e636e69732e66722f66722f7265636865726368652d73616e74652f352968747470" +
		"733a2f2f7777772e636e69732e66722f66722f636f6d6d657263652d656d706c6f692f313300"
	parentDeltaCheckpoint = "00010808bb010301782800069628d4ff022c006e00010401033668747470733a2f2f7777772e636e69732e66722f72656769" +
		"6f6e616c2f656e71756574652d656475636174696f6e2d31322e68746d6c3068747470733a2f2f7777772e636e69732e6672" +
		"2f66696c65732f616e6e75656c2d726567696f6e616c2d34302e637376"
)

// TestReadsParentWrittenDeltaCheckpoint: deltas are no longer written but
// stores hold them. Planted in a store, the parent's pair resolves through
// the delta for readCheckpoint and SiteProgress; once this build writes its
// small full record over the base, the stale delta no longer applies and the
// new record wins.
func TestReadsParentWrittenDeltaCheckpoint(t *testing.T) {
	full, err := hex.DecodeString(parentFullCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := hex.DecodeString(parentDeltaCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	site, err := GenerateSite("cn", 0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: StrategyBFS, Seed: 3, MaxRequests: 22, CheckpointEvery: 4}
	fp := cfgFingerprint(cfg, site.Root())
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	records := store.Prefixed(st.st, simNamespace(site)+"|c|")
	if err := records.Put("ckpt|"+fp, full); err != nil {
		t.Fatal(err)
	}
	if err := records.Put("ckptd|"+fp, delta); err != nil {
		t.Fatal(err)
	}

	base, err := core.DecodeCheckpoint(full)
	if err != nil || base.Requests != 4 || len(base.Frontier) != 173 {
		t.Fatalf("parent full record decodes to %+v, %v", base, err)
	}
	cp, ok := readCheckpoint(records, fp)
	if !ok {
		t.Fatal("readCheckpoint found nothing")
	}
	if cp.Requests != 20 || cp.Targets != 3 || cp.Visited != 22 {
		t.Fatalf("delta not resolved: %+v, want the checkpoint at request 20 (3 targets, 22 visited)", cp)
	}
	if prog, want := st.SiteProgress(site, cfg), (CrawlProgress{Requests: 20, Targets: 3}); prog != want {
		t.Fatalf("SiteProgress = %+v, want %+v", prog, want)
	}

	// This build's sink writes over the base; the delta stays behind.
	sink := &storeSink{b: records, key: "ckpt|" + fp}
	sink.Checkpoint(core.Checkpoint{Requests: 8, Targets: 1})
	if prog, want := st.SiteProgress(site, cfg), (CrawlProgress{Requests: 8, Targets: 1}); prog != want {
		t.Fatalf("SiteProgress = %+v after a new full record, want %+v (stale delta applied?)", prog, want)
	}
	// Even a new record at the delta's own base sequence does not take it:
	// the delta names its base's length, and this record has no blob.
	sink.Checkpoint(core.Checkpoint{Requests: 4})
	if prog, want := st.SiteProgress(site, cfg), (CrawlProgress{Requests: 4}); prog != want {
		t.Fatalf("SiteProgress = %+v with the base sequence rewritten, want %+v", prog, want)
	}
}

// TestStoreSinkCheckpointAllocs: the durable checkpoint path — encode into
// the sink's scratch, one Put under the full key, one Sync — allocates
// nothing once the scratch and the store's write buffer are warm.
func TestStoreSinkCheckpointAllocs(t *testing.T) {
	cs, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	env := &core.Env{Root: "https://site.org/"}
	cs.attach(env, Config{Strategy: StrategyBFS}, "stest")
	cp := core.Checkpoint{Requests: 64, Targets: 3, TargetBytes: 4096, NonTargetBytes: 1 << 20, Visited: 900}
	env.Checkpoint.Checkpoint(cp) // warm: scratch, write buffer, index entry
	allocs := testing.AllocsPerRun(100, func() {
		cp.Requests += 64
		env.Checkpoint.Checkpoint(cp)
	})
	if allocs != 0 {
		t.Errorf("a durable checkpoint allocates %v times, want 0", allocs)
	}
	if got, ok := readCheckpoint(store.Prefixed(cs.st, "stest|c|"), cfgFingerprint(Config{Strategy: StrategyBFS}, env.Root)); !ok || !reflect.DeepEqual(got, cp) {
		t.Errorf("stored checkpoint = %+v, %v; want %+v", got, ok, cp)
	}
}

// TestAttachAllocsIndependentOfStoreSize: wiring a crawl into a shared store
// and reporting its store stats costs the same however many keys the store
// holds — other sites' or this site's own replay records — because the
// replay database is a view that lists nothing; a daemon's attach must not
// slow down with every session it has ever run. Resumed and ReplayStored
// keep their meaning: the site's stored GET responses, counted.
func TestAttachAllocsIndependentOfStoreSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	attach := func(foreign, own int) float64 {
		cs, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer cs.Close()
		for i := 0; i < foreign; i++ {
			if err := cs.st.Put(fmt.Sprintf("s%08x|r|g|https://other.org/%d", i%97, i), nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < own; i++ {
			if err := cs.st.Put(fmt.Sprintf("stest|r|g|https://site.org/%d", i), nil); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 { // HEAD records are stored beside, and are not stored GETs
				if err := cs.st.Put(fmt.Sprintf("stest|r|h|https://site.org/%d", i), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		return testing.AllocsPerRun(10, func() {
			pc := cs.attach(&core.Env{Root: "https://site.org/"}, Config{Strategy: StrategyBFS}, "stest")
			if st := pc.stats(false); st.Resumed != (own > 0) || st.ReplayStored != own {
				t.Fatalf("stats over %d stored responses = %+v", own, *st)
			}
		})
	}
	empty, small, large := attach(0, 0), attach(100, 10), attach(50000, 5000)
	if empty != small || small != large {
		t.Errorf("attach + stats allocates %v times on an empty store, %v beside 100 foreign / 10 own keys, %v beside 50,000 / 5,000", empty, small, large)
	}
}

// TestPageCountAllocs: counting a site's pages walks its whole link graph,
// and every crawl asks; the count is taken once per Site.
func TestPageCountAllocs(t *testing.T) {
	site, err := GenerateSite("cn", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := GenerateFederation([]string{"cn", "cl"}, 0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Site{site, fed} {
		want := s.PageCount()
		if allocs := testing.AllocsPerRun(10, func() {
			if got := s.PageCount(); got != want {
				t.Fatalf("PageCount = %d, then %d", want, got)
			}
		}); allocs != 0 {
			t.Errorf("%s: PageCount allocates %v times on a repeated call, want 0", s.Code(), allocs)
		}
	}
}
