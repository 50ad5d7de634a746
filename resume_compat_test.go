package sbcrawl

// Cross-version gate for the binary codec: records stamped with a future
// format version are refused cleanly, with the typed error. The
// delta-checkpoint test pins the other side of the persistence format:
// between full checkpoints the sink writes byte-range deltas, and progress
// reads resolve them.

import (
	"errors"
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
	cs, err2 := openCrawlStore(dir)
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

// TestDeltaCheckpoints: with CheckpointEvery=4 over a 30-request budget the
// sink writes one full checkpoint (request 4) and byte-range deltas for the
// rest; SiteProgress resolves the delta chain to the newest checkpoint, and
// resume over the delta-bearing store stays byte-identical.
func TestDeltaCheckpoints(t *testing.T) {
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

	ns := simNamespace(site)
	fp := cfgFingerprint(killCfg, site.Root())
	cs, err := openCrawlStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	records := store.Prefixed(cs.st, ns+"|c|")
	fullRaw, ok := records.Get("ckpt|" + fp)
	if !ok {
		t.Fatal("no full checkpoint written")
	}
	full, err := core.DecodeCheckpoint(fullRaw)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := records.Get("ckptd|" + fp); !ok {
		t.Fatal("no delta checkpoint written between full snapshots")
	}
	cp, ok := readCheckpoint(records, fp)
	if !ok {
		t.Fatal("readCheckpoint found nothing")
	}
	if cp.Requests <= full.Requests {
		t.Fatalf("delta not applied: resolved checkpoint at %d requests, full blob at %d", cp.Requests, full.Requests)
	}
	// Truncate the done-record (the budget-exhausted run recorded one), so
	// the progress read must fall back through the checkpoint chain — and
	// must resolve the delta, not stop at the stale full blob.
	if err := records.Put("done|"+fp, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	// SiteProgress reports the delta-resolved checkpoint, not the stale full.
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	prog := st.SiteProgress(site, killCfg)
	st.Close()
	if prog.Done || prog.Requests != cp.Requests {
		t.Fatalf("SiteProgress = %+v, want requests=%d via delta", prog, cp.Requests)
	}

	// And resume over the delta-bearing store is still byte-identical.
	resCfg := cfg
	resCfg.StorePath = dir
	resCfg.Resume = true
	resumed, err := CrawlSite(site, resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStore(resumed), baseline) {
		t.Error("resume over delta-checkpointed store diverged from uninterrupted run")
	}
}
