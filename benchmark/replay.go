package main

import (
	"math"
	"net/url"
	"runtime"
	"time"

	"sbcrawl"
	"sbcrawl/internal/classify"
	"sbcrawl/internal/codec"
	"sbcrawl/internal/core"
	"sbcrawl/internal/dom"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/frontier"
	"sbcrawl/internal/hnsw"
	"sbcrawl/internal/learn"
	"sbcrawl/internal/textvec"
	"sbcrawl/internal/urlutil"
)

// The replays drive each layer's public functions in isolation over the
// stream a traced crawl produced: the URLs its fetch boundary served (pages
// are re-rendered from the same backend, so no body is retained), the links
// those pages hold, the bandit op log and the checkpoints. Every replay is
// single-threaded CPU work, so its wall time is the layer's CPU cost.

// layerAcc accumulates replay measurements over the crawls of one pass.
type layerAcc struct {
	pages, htmlPages int
	renderS          float64

	domDur   []float64 // seconds per HTML page
	domBytes int64
	links    int
	domAlloc float64 // mallocs per page over the sampled bodies

	normS     float64
	normLinks int
	scopeS    float64 // Scope.Contains + HasBlockedExtension on unseen links

	classifyS  float64 // Observe + Classify, HEAD labelling excluded
	classified int
	fitS       float64
	fitBatches int

	actionS     float64
	actionLinks int
	vecS        float64
	nearestDur  []float64
	hnswSampleS float64 // HNSW time on the queries brute force also answered
	bruteS      float64

	pushPopS  float64
	pushPops  int
	awakeS    float64
	awakes    int
	peekS     float64
	peeks     int
	snapshots []float64 // seconds per frontier snapshot + encode
}

// explained is the CPU the replayed layers account for.
func (a *layerAcc) explained() float64 {
	return a.renderS + sum(a.domDur) + a.normS + a.scopeS + a.classifyS + a.actionS +
		a.pushPopS + a.awakeS + a.peekS + sum(a.snapshots)
}

// timedModel spans learn.Model.PartialFit inside the classifier replay.
type timedModel struct {
	learn.Model
	acc *layerAcc
}

func (m *timedModel) PartialFit(batch []learn.Example) {
	t0 := time.Now()
	m.Model.PartialFit(batch)
	m.acc.fitS += time.Since(t0).Seconds()
	m.acc.fitBatches++
}

// domSampleCap bounds the HTML bodies kept for the allocation count.
const domSampleCap = 200

// peekWidth is the hint count the frontier Peek replays ask for: the
// adaptive window's starting width.
var peekWidth = fetch.NewAutoTuner().Window()

// replayCrawl re-drives the layers over one traced crawl.
func replayCrawl(jt *jobTrace, job crawlJob, acc *layerAcc) {
	cfg := job.cfg
	isSB := cfg.Strategy == "" || cfg.Strategy == sbcrawl.StrategySB
	sim := fetch.NewSim(job.site.twin())
	root := job.site.pub.Root()
	scope, err := urlutil.NewScope(root)
	if err != nil {
		return
	}
	mimes := urlutil.DefaultTargetSet()
	classOf := func(resp fetch.Response) int {
		switch {
		case resp.Status >= 200 && resp.Status < 300 && urlutil.IsHTML(resp.MIME):
			return classify.ClassHTML
		case resp.Status >= 200 && resp.Status < 300 && mimes.Contains(resp.MIME):
			return classify.ClassTarget
		}
		return classify.ClassNeither
	}

	var (
		cls     *classify.Online
		ai      *core.ActionIndex
		headS   float64
		paths   []dom.TagPath // tag paths ActionFor saw, in order
		newURLs []string      // every new link, in discovery order
		pushes  []int32       // new links per fetched page (simple frontiers)
		samples [][]byte
		raw     []dom.Link
		fresh   []dom.Link
	)
	if isSB {
		cls = classify.NewOnline(classify.Config{
			Model: &timedModel{Model: learn.NewModel("LR"), acc: acc},
			Head: func(u string) int {
				t0 := time.Now()
				resp, _ := sim.Head(u)
				headS += time.Since(t0).Seconds()
				return classOf(resp)
			},
		})
		ai = core.NewActionIndex(core.ActionIndexConfig{Seed: cfg.Seed})
	}

	seen := map[string]bool{root: true}
	fetched := make(map[string]bool, len(jt.gets))
	for _, u := range jt.gets {
		if fetched[u] {
			continue // a retried or re-speculated URL renders the same page
		}
		fetched[u] = true
		seen[u] = true
		t0 := time.Now()
		resp, _ := sim.Get(u)
		acc.renderS += time.Since(t0).Seconds()
		acc.pages++
		isHTML := resp.Status >= 200 && resp.Status < 300 && !resp.Interrupted && urlutil.IsHTML(resp.MIME)
		fresh = fresh[:0]
		if isHTML {
			acc.htmlPages++
			t0 = time.Now()
			raw = dom.ExtractLinksAppend(raw[:0], resp.Body)
			acc.domDur = append(acc.domDur, time.Since(t0).Seconds())
			acc.domBytes += int64(len(resp.Body))
			acc.links += len(raw)
			if len(samples) < domSampleCap {
				samples = append(samples, resp.Body)
			}
			base, err := url.Parse(u)
			if err != nil {
				base = &url.URL{}
			}
			t0 = time.Now()
			for i := range raw {
				raw[i].URL = urlutil.Normalize(base, raw[i].URL)
			}
			acc.normS += time.Since(t0).Seconds()
			acc.normLinks += len(raw)
			// The engine's Algorithm 4 filters, in its order: T ∪ F membership
			// (the benchmark's own map), then urlutil's scope and blocklist.
			for _, l := range raw {
				if l.URL == "" || seen[l.URL] {
					continue
				}
				seen[l.URL] = true
				fresh = append(fresh, l)
			}
			t0 = time.Now()
			kept := fresh[:0]
			for _, l := range fresh {
				if scope.Contains(l.URL) && !urlutil.HasBlockedExtension(l.URL) {
					kept = append(kept, l)
				}
			}
			acc.scopeS += time.Since(t0).Seconds()
			fresh = kept
			for _, l := range fresh {
				newURLs = append(newURLs, l.URL)
			}
		}
		pushes = append(pushes, int32(len(fresh)))
		if !isSB {
			continue
		}
		ctxs := make([]classify.LinkContext, len(fresh))
		for i, l := range fresh {
			ctxs[i] = classify.LinkContext{URL: l.URL, AnchorText: l.AnchorText, TagPath: l.TagPath.String(), SurroundingText: l.SurroundingText}
		}
		first := len(paths)
		head0 := headS
		t0 = time.Now()
		cls.Observe(u, classOf(resp))
		for i, l := range fresh {
			if class, _ := cls.Classify(ctxs[i]); class != classify.ClassTarget {
				paths = append(paths, l.TagPath)
			}
		}
		acc.classifyS += time.Since(t0).Seconds() - (headS - head0)
		acc.classified += len(fresh)
		t0 = time.Now()
		for _, p := range paths[first:] {
			ai.ActionFor(p)
		}
		acc.actionS += time.Since(t0).Seconds()
		acc.actionLinks += len(paths) - first
	}

	if len(samples) > 0 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, body := range samples {
			raw = dom.ExtractLinksAppend(raw[:0], body)
		}
		runtime.ReadMemStats(&after)
		acc.domAlloc = float64(after.Mallocs-before.Mallocs) / float64(len(samples))
	}

	cadence := job.checkpointEvery
	if isSB {
		replayActionIndex(paths, cfg.Seed, acc)
		replayGrouped(jt.ops, newURLs, cfg.Seed, cadence, cfg.Prefetch != 0, acc)
	} else {
		replaySimple(pushes, newURLs, cfg.Strategy == sbcrawl.StrategyDFS, cadence, cfg.Prefetch != 0, acc)
	}
}

// bruteSamples bounds the queries the linear scan also answers: at D = 4096
// a scan over a few thousand centroids costs milliseconds per query.
const bruteSamples = 256

// replayActionIndex re-runs Algorithm 1 on the benchmark's own vectorizer
// and HNSW index (the same construction core.NewActionIndex uses), timing
// Vectorize and Nearest apart, and answers a sample of the same queries by
// a linear cosine scan over the same centroids.
func replayActionIndex(paths []dom.TagPath, seed int64, acc *layerAcc) {
	const theta = 0.75
	vec := textvec.NewTagPathVectorizer(2, 12, 15)
	hcfg := hnsw.DefaultConfig()
	hcfg.Seed = seed + 1
	ix := hnsw.New(hcfg)
	var counts []int
	stride := len(paths)/bruteSamples + 1
	for i, p := range paths {
		t0 := time.Now()
		q := vec.Vectorize(p)
		t1 := time.Now()
		near, ok := ix.Nearest(q)
		t2 := time.Now()
		acc.vecS += t1.Sub(t0).Seconds()
		acc.nearestDur = append(acc.nearestDur, t2.Sub(t1).Seconds())
		if i%stride == 0 && ix.Len() > 0 {
			bruteNearest(ix, q)
			acc.bruteS += time.Since(t2).Seconds()
			acc.hnswSampleS += t2.Sub(t1).Seconds()
		}
		if ok && near.Similarity >= theta {
			c := ix.Vector(near.ID)
			n := float64(counts[near.ID])
			upd := make([]float64, len(c))
			for k := range c {
				upd[k] = c[k] + (q[k]-c[k])/(n+1)
			}
			ix.Update(near.ID, upd)
			counts[near.ID]++
		} else {
			ix.Add(q)
			counts = append(counts, 1)
		}
	}
}

// bruteNearest is the baseline HNSW is judged against: one cosine per stored
// centroid, no index.
func bruteNearest(ix *hnsw.Index, q []float64) (best int, bestSim float64) {
	qn := 0.0
	for _, x := range q {
		qn += x * x
	}
	qn = math.Sqrt(qn)
	best, bestSim = -1, -2
	for id := 0; id < ix.Len(); id++ {
		v := ix.Vector(id)
		dot, vn := 0.0, 0.0
		for k, x := range v {
			dot += x * q[k]
			vn += x * x
		}
		if s := dot / (qn*math.Sqrt(vn) + 1e-300); s > bestSim {
			best, bestSim = id, s
		}
	}
	return best, bestSim
}

// bestOf runs fn three times and keeps the fastest: the frontier replays
// subtract one run from another, so they want the least disturbed one.
func bestOf(fn func() float64) float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		if s := fn(); s < best {
			best = s
		}
	}
	return best
}

func urlAt(urls []string, i int) string {
	if len(urls) == 0 {
		return "https://example.test/"
	}
	return urls[i%len(urls)]
}

// replayGrouped re-drives frontier.Grouped with the exact op stream the SB
// crawl issued: one Push per EnsureArm, and per Select an Awake, a PopFrom
// of the arm the bandit chose and — when the crawl prefetches — a Peek.
// Awake and Peek are costed by difference against the run without them.
func replayGrouped(ops []policyOp, urls []string, seed int64, cadence int, prefetch bool, acc *layerAcc) {
	run := func(awake, peek, snapshot bool) func() float64 {
		return func() float64 {
			g := frontier.NewGrouped(seed + 2)
			var buf []byte
			pops := 0
			t0 := time.Now()
			for i, op := range ops {
				if op.ensure {
					g.Push(int(op.arm), urlAt(urls, i))
					continue
				}
				if awake {
					g.Awake()
				}
				if peek {
					g.Peek(peekWidth)
				}
				g.PopFrom(int(op.arm))
				if pops++; snapshot && cadence > 0 && pops%cadence == 0 {
					s0 := time.Now()
					buf, _ = codec.AppendFrontierState(buf[:0], g.Snapshot())
					acc.snapshots = append(acc.snapshots, time.Since(s0).Seconds())
				}
			}
			return time.Since(t0).Seconds()
		}
	}
	selects := 0
	for _, op := range ops {
		if !op.ensure {
			selects++
		}
	}
	base := bestOf(run(false, false, false))
	acc.pushPopS += base
	acc.pushPops += len(ops)
	if d := bestOf(run(true, false, false)) - base; d > 0 {
		acc.awakeS += d
	}
	acc.awakes += selects
	if prefetch {
		if d := bestOf(run(false, true, false)) - base; d > 0 {
			acc.peekS += d
		}
		acc.peeks += selects
	}
	run(false, false, true)()
}

// replaySimple re-drives the BFS queue (or DFS stack) with the push and pop
// counts of the traced crawl.
func replaySimple(pushes []int32, urls []string, stack bool, cadence int, prefetch bool, acc *layerAcc) {
	type simple interface {
		Push(string)
		Pop() (string, bool)
		Peek(int) []string
	}
	run := func(peek, snapshot bool) func() float64 {
		return func() float64 {
			var f simple = &frontier.Queue{}
			if stack {
				f = &frontier.Stack{}
			}
			var buf []byte
			next := 0
			f.Push(urlAt(urls, 0))
			t0 := time.Now()
			for page, n := range pushes {
				if peek {
					f.Peek(peekWidth)
				}
				f.Pop()
				for k := 0; k < int(n); k++ {
					f.Push(urlAt(urls, next))
					next++
				}
				if snapshot && cadence > 0 && (page+1)%cadence == 0 {
					s0 := time.Now()
					switch fr := f.(type) {
					case *frontier.Queue:
						buf, _ = codec.AppendFrontierState(buf[:0], fr.Snapshot())
					case *frontier.Stack:
						buf, _ = codec.AppendFrontierState(buf[:0], fr.Snapshot())
					}
					acc.snapshots = append(acc.snapshots, time.Since(s0).Seconds())
				}
			}
			return time.Since(t0).Seconds()
		}
	}
	base := bestOf(run(false, false))
	acc.pushPopS += base
	if prefetch {
		if d := bestOf(run(true, false)) - base; d > 0 {
			acc.peekS += d
		}
		acc.peeks += len(pushes)
	}
	run(false, true)()
}
