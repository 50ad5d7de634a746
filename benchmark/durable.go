package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sbcrawl"
	"sbcrawl/internal/codec"
	"sbcrawl/internal/core"
	"sbcrawl/internal/fabric"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/store"
)

// durableRunner is the durable-resume workload: four phases over one fresh
// store directory per pass — (a) cold BFS to half budget, (b) reopen and run
// to exhaustion (the prefix replays, the rest is fetched and written),
// (c) the same Config with Resume (done-record short-circuit), (d) DFS over
// the now-warm store.
type durableRunner struct {
	dir   string
	site  *simSite
	every int
	// phases a, b and d as Configs without the store; c re-runs b.
	cfgs [3]sbcrawl.Config
	jobs [3]crawlJob // reference fingerprints per phase
	n    int         // pass counter, for fresh store directories
}

const (
	phaseHalf = iota
	phaseFull
	phaseDFS
)

var phaseNames = [3]string{"half", "full", "dfs"}

func newDurableRunner(p params, seed int64, dir string) (*durableRunner, error) {
	site, err := genSite(p.Durable, siteSeed(0))
	if err != nil {
		return nil, err
	}
	r := &durableRunner{dir: dir, site: site, every: p.CheckpointEvery}
	r.cfgs[phaseHalf] = sbcrawl.Config{Strategy: sbcrawl.StrategyBFS, Seed: seed, MaxRequests: site.pub.PageCount() / 2}
	r.cfgs[phaseFull] = sbcrawl.Config{Strategy: sbcrawl.StrategyBFS, Seed: seed}
	r.cfgs[phaseDFS] = sbcrawl.Config{Strategy: sbcrawl.StrategyDFS, Seed: seed}
	for i, cfg := range r.cfgs {
		r.jobs[i] = crawlJob{site: site, cfg: cfg, checkpointEvery: p.CheckpointEvery}
	}
	// Opening (and closing) a store is part of what a durable crawl sets up.
	st, err := sbcrawl.OpenStore(filepath.Join(dir, "setup"))
	if err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return r, os.RemoveAll(filepath.Join(dir, "setup"))
}

func (r *durableRunner) reference() error {
	for i := range r.jobs {
		j := &r.jobs[i]
		o := fromPublic(sbcrawl.CrawlSite(r.site.pub, plain(j.cfg)))
		if o.err != nil {
			return fmt.Errorf("reference %s crawl: %w", phaseNames[i], o.err)
		}
		j.ref = o.fingerprint()
	}
	return nil
}

func (r *durableRunner) freshDir() string {
	r.n++
	return filepath.Join(r.dir, fmt.Sprintf("store-%d", r.n))
}

func (r *durableRunner) warmup() error {
	_, err := r.pass()
	return err
}

func (r *durableRunner) pass() (passStats, error) {
	dir := r.freshDir()
	defer os.RemoveAll(dir)
	pages := r.site.pub.PageCount()
	var p passStats
	durable := func(phase int, resume bool) outcome {
		cfg := r.cfgs[phase]
		cfg.StorePath, cfg.CheckpointEvery, cfg.Resume = dir, r.every, resume
		return fromPublic(sbcrawl.CrawlSite(r.site.pub, cfg))
	}
	m := startMeter()
	p.tally("half", durable(phaseHalf, false), r.jobs[phaseHalf].ref, pages)
	t0 := time.Now()
	full := durable(phaseFull, false)
	resumeWall := time.Since(t0).Seconds()
	p.tally("full", full, r.jobs[phaseFull].ref, pages)
	// The short-circuit executes nothing: it is one checked operation, not
	// charged requests.
	p.attempted++
	if got := durable(phaseFull, true).fingerprint(); got != r.jobs[phaseFull].ref {
		p.failed++
		p.mismatches = append(p.mismatches, fmt.Sprintf("resume: fingerprint %s, reference %s", got, r.jobs[phaseFull].ref))
	}
	p.tally("dfs", durable(phaseDFS, false), r.jobs[phaseDFS].ref, pages)
	m.stop(&p)
	p.extra = map[string]float64{
		"resume_wall_s":       resumeWall,
		"store_bytes_per_req": ratio(float64(dirBytes(dir)), float64(full.requests)),
	}
	return p, nil
}

func dirBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}

// benchSink is the benchmark's copy of the library's checkpoint sink
// (persist.go storeSink): a full blob every eighth checkpoint, byte-range
// deltas between, one Sync each — the same writes, behind a span.
type benchSink struct {
	b     store.Backend
	base  []byte
	baseN int
	n     int
	enc   []byte
	denc  []byte
}

func (s *benchSink) Checkpoint(cp core.Checkpoint) {
	s.enc = core.AppendCheckpoint(s.enc[:0], &cp)
	if s.base == nil || s.n >= 7 {
		if s.b.Put("ckpt", s.enc) != nil {
			return
		}
		s.base = append(s.base[:0], s.enc...)
		s.baseN, s.n = cp.Requests, 0
	} else {
		s.denc = codec.AppendHeader(s.denc[:0], codec.KindCheckpointDelta)
		s.denc = codec.AppendInt(s.denc, s.baseN)
		s.denc = codec.AppendDelta(s.denc, s.base, s.enc)
		if s.b.Put("ckptd", s.denc) != nil {
			return
		}
		s.n++
	}
	s.b.Sync() // a failed flush surfaces at Close, as in the library's sink
}

// layers runs phases a, b and d with the benchmark's own wiring — the span
// wrapper below fetch.Replay, the sink behind a span — then drives store and
// codec in isolation over the stream those crawls produced.
func (r *durableRunner) layers(tr *tracer) (map[string]float64, passStats, error) {
	dir := r.freshDir()
	defer os.RemoveAll(dir)
	pages := r.site.pub.PageCount()
	run := &tracedRun{}
	var pass passStats
	var replayHits, replayMisses int
	var garbage float64
	m0 := startMeter()
	run.root = tr.begin("pass", -1)
	for phase, cfg := range r.cfgs {
		st, err := store.Open(dir)
		if err != nil {
			return nil, pass, err
		}
		jt := &jobTrace{tr: tr}
		jt.span = tr.begin("crawl:"+phaseNames[phase], run.root)
		env := tracedEnv(jt, r.site, cfg, nil)
		env.Fetcher.(*tracedFetcher).record = false
		replay := fetch.NewReplay(env.Fetcher)
		replay.SetBackend(store.Prefixed(st, "bench|r|"))
		env.Fetcher = &streamRecorder{Fetcher: replay, j: jt}
		env.CheckpointEvery = r.every
		records := store.Prefixed(st, "bench|c|"+phaseNames[phase]+"|")
		env.Checkpoint = &tracedSink{next: &benchSink{b: records}, j: jt}
		crawler, err := tracedCrawler(jt, cfg)
		if err != nil {
			return nil, pass, err
		}
		res, err := crawler.Run(env)
		if err == nil {
			// The done-record the library writes when a crawl finishes.
			if err = records.Put("done", core.AppendResult(nil, res)); err == nil {
				err = records.Sync()
			}
		}
		tr.end(jt.span)
		replayHits += replay.Hits()
		replayMisses += replay.Misses()
		garbage = st.GarbageRatio()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, pass, err
		}
		run.jobs = append(run.jobs, jt)
		run.results = append(run.results, res)
		pass.tally(phaseNames[phase], fromCore(res, nil), r.jobs[phase].ref, pages)
	}
	tr.end(run.root)
	m0.stop(&pass)
	run.pass = pass
	cr := &crawlRunner{name: wDurable, jobs: r.jobs[:]}
	m, err := cr.assemble(tr, run)
	if err != nil {
		return nil, pass, err
	}
	m["fetch.replay_hit_ratio"] = ratio(float64(replayHits), float64(replayHits+replayMisses))
	m["store.garbage_ratio_at_close"] = garbage
	m["store.bytes_on_disk"] = float64(dirBytes(dir))

	var urls []string
	var ckpts []core.Checkpoint
	for _, jt := range run.jobs {
		urls = append(urls, jt.gets...)
		ckpts = append(ckpts, jt.ckpts...)
	}
	replaySpan := tr.begin("replay.store", run.root)
	writeS, readS, err := replayStore(urls, fetch.NewSim(r.site.twin()), filepath.Join(r.dir, "iso"), m)
	tr.end(replaySpan)
	if err != nil {
		return nil, pass, err
	}
	replayCheckpoints(ckpts, m)
	// The crawl wrote every replay miss through the store and read every hit
	// back: CPU the store replay explains on top of the crawl layers.
	explained := m[explainedKey] + float64(replayMisses)*writeS + float64(replayHits)*readS
	m["core.unattributed_share"] = 1 - explained/m[cpuKey]
	return m, pass, nil
}

// storeSyncEvery is how many Puts share a Sync in the isolated store drive,
// matching the workload's checkpoint cadence order of magnitude;
// storeRepeats is how many fresh stores the write timings are the median of.
const (
	storeSyncEvery = 64
	storeRepeats   = 5
)

// replayStore drives fetch's response codec and the store's public functions
// in isolation over the responses of the traced crawl's stream. It returns
// the seconds one response costs to write (encode + Put, Syncs included) and
// to read back (Get + decode).
func replayStore(urls []string, sim *fetch.Sim, dir string, m map[string]float64) (writeS, readS float64, err error) {
	defer os.RemoveAll(dir)
	seen := map[string]bool{}
	var kvs []store.KV
	var encS, decS float64
	var total int64
	var buf []byte
	var before, after runtime.MemStats
	for _, u := range urls {
		if seen[u] {
			continue
		}
		seen[u] = true
		resp, _ := sim.Get(u)
		t0 := time.Now()
		buf = fetch.AppendResponse(buf[:0], &resp)
		encS += time.Since(t0).Seconds()
		kvs = append(kvs, store.KV{Key: "g|" + u, Val: append([]byte(nil), buf...)})
		total += int64(len(buf))
	}
	if len(kvs) == 0 {
		return 0, 0, nil
	}
	t0 := time.Now()
	var back fetch.Response
	for _, kv := range kvs {
		if err := fetch.DecodeResponseInto(kv.Val, &back); err != nil {
			return 0, 0, err
		}
	}
	decS = time.Since(t0).Seconds()
	// Allocations per decode + re-encode round trip, outside the timing.
	runtime.ReadMemStats(&before)
	for _, kv := range kvs {
		_ = fetch.DecodeResponseInto(kv.Val, &back) // decoded cleanly just above
		buf = fetch.AppendResponse(buf[:0], &back)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(kvs))
	m["fetch.response_encode_ns"] = encS / n * 1e9
	m["fetch.response_decode_ns"] = decS / n * 1e9
	m["fetch.response_codec_allocs"] = float64(after.Mallocs-before.Mallocs) / n
	mb := float64(total) / 1e6

	// write fills a fresh store with the responses — Put with a Sync every
	// storeSyncEvery, or one PutBatch + Sync per group — and returns it open.
	var syncs []float64
	write := func(name string, batch bool) (*store.Store, float64, error) {
		st, err := store.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		for i := 0; i < len(kvs) && err == nil; i += storeSyncEvery {
			group := kvs[i:min(i+storeSyncEvery, len(kvs))]
			if batch {
				err = st.PutBatch(group)
			} else {
				for _, kv := range group {
					if err = st.Put(kv.Key, kv.Val); err != nil {
						break
					}
				}
			}
			if err == nil {
				s0 := time.Now()
				err = st.Sync()
				if !batch { // PutBatch flushes itself; its Sync finds nothing to do
					syncs = append(syncs, time.Since(s0).Seconds())
				}
			}
		}
		return st, time.Since(t0).Seconds(), err
	}
	// The responses are a few MB, tens of milliseconds of writing: the median
	// of storeRepeats fresh stores, the last one kept for the reads below.
	var st *store.Store
	var putTimes, batchTimes []float64
	putDir := filepath.Join(dir, "put")
	for rep := 0; rep < storeRepeats; rep++ {
		for _, batch := range []bool{true, false} {
			if st != nil {
				// Closed and deleted before the next one fills, so the page
				// cache never holds more than one store's dirty pages.
				if err := st.Close(); err != nil {
					return 0, 0, err
				}
				if err := os.RemoveAll(putDir); err != nil {
					return 0, 0, err
				}
			}
			var secs float64
			if st, secs, err = write("put", batch); err != nil {
				return 0, 0, err
			}
			if batch {
				batchTimes = append(batchTimes, secs)
			} else {
				putTimes = append(putTimes, secs)
			}
		}
	}
	putS := median(putTimes)
	m["store.put_mb_per_s"] = mb / putS
	m["store.putbatch_mb_per_s"] = mb / median(batchTimes)
	m["store.sync_us_p50"] = median(syncs) * 1e6
	gets := make([]float64, 0, len(kvs))
	for _, kv := range kvs {
		g0 := time.Now()
		if _, ok := st.Get(kv.Key); !ok {
			return 0, 0, fmt.Errorf("store replay: %q missing after Put", kv.Key)
		}
		gets = append(gets, time.Since(g0).Seconds())
	}
	m["store.get_ns_p50"] = median(gets) * 1e9
	if err := st.Close(); err != nil {
		return 0, 0, err
	}

	// Reopen: the index rebuild scans every segment.
	onDisk := float64(dirBytes(putDir)) / 1e6
	t0 = time.Now()
	if st, err = store.Open(putDir); err != nil {
		return 0, 0, err
	}
	m["store.open_scan_mb_per_s"] = onDisk / time.Since(t0).Seconds()

	// Snapshot with a writer alongside: how long can a Put stall?
	var stalls []float64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p0 := time.Now()
			if st.Put(fmt.Sprintf("x|%d", i%16), []byte("probe")) != nil {
				return
			}
			stalls = append(stalls, time.Since(p0).Seconds())
		}
	}()
	t0 = time.Now()
	err = st.Snapshot()
	snapS := time.Since(t0).Seconds()
	close(stop)
	wg.Wait()
	if err != nil {
		return 0, 0, err
	}
	m["store.snapshot_mb_per_s"] = mb / snapS
	m["store.put_p99_us_during_snapshot"] = quantile(stalls, 0.99) * 1e6
	if err := st.Close(); err != nil {
		return 0, 0, err
	}

	return (encS + putS) / n, (sum(gets) + decS) / n, nil
}

// replayCheckpoints drives the checkpoint codec over the traced crawl's own
// checkpoints: encode cost, delta size against the previous one, and
// allocations per encode+decode round trip.
func replayCheckpoints(ckpts []core.Checkpoint, m map[string]float64) {
	if len(ckpts) == 0 {
		return
	}
	var buf, prev, delta []byte
	var fullBytes, deltaBytes int
	t0 := time.Now()
	for i := range ckpts {
		buf = core.AppendCheckpoint(buf[:0], &ckpts[i])
	}
	m["codec.checkpoint_encode_us"] = time.Since(t0).Seconds() / float64(len(ckpts)) * 1e6
	for i := range ckpts {
		buf = core.AppendCheckpoint(buf[:0], &ckpts[i])
		if i > 0 && ckpts[i].Requests > ckpts[i-1].Requests {
			delta = codec.AppendDelta(delta[:0], prev, buf)
			deltaBytes += len(delta)
			fullBytes += len(buf)
		}
		prev = append(prev[:0], buf...)
	}
	m["codec.checkpoint_delta_ratio"] = ratio(float64(deltaBytes), float64(fullBytes))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ckpts {
		buf = core.AppendCheckpoint(buf[:0], &ckpts[i])
		if _, err := core.DecodeCheckpoint(buf); err != nil {
			return
		}
	}
	runtime.ReadMemStats(&after)
	m["codec.allocs_per_roundtrip"] = float64(after.Mallocs-before.Mallocs) / float64(len(ckpts))
}

// envelopeEncodeNS times the fabric's wire framing over the crawl's own URL
// stream, sixteen URLs to an envelope.
func envelopeEncodeNS(urls []string) float64 {
	const batch = 16
	var buf []byte
	n := 0
	t0 := time.Now()
	for i := 0; i+batch <= len(urls); i += batch {
		buf = fabric.AppendEnvelope(buf[:0], &fabric.Envelope{From: 0, To: 1, URLs: urls[i : i+batch]})
		n++
	}
	return ratio(time.Since(t0).Seconds(), float64(n)) * 1e9
}
