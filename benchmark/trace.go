package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sbcrawl/internal/bandit"
	"sbcrawl/internal/core"
	"sbcrawl/internal/fetch"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each layer: wrappers at the interfaces the program accepts
// (fetch.Fetcher, core.Checkpointer, bandit.Policy) plus one span per
// library call and per replayed layer. Spans stay in memory and are written
// when the benchmark ends.

// span is one timed interval; Parent is the index of the span that caused it
// (-1 for a pass root). Times are nanoseconds since the tracer started.
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Pass       int
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	pass  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Pass: t.pass})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// covered returns, for the spans keep selects, their count, their summed
// duration and the length of the union of their intervals. A span's self
// time is its duration minus the union its child spans cover.
func (t *tracer) covered(keep func(s span) bool) (n int, busy, union float64, durs []float64) {
	t.mu.Lock()
	var iv [][2]int64
	for _, s := range t.spans {
		if keep(s) {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var curS, curE int64 = 0, -1
	var u int64
	for _, x := range iv {
		d := x[1] - x[0]
		busy += float64(d) / 1e9
		durs = append(durs, float64(d)/1e9)
		if curE < 0 || x[0] > curE {
			if curE >= 0 {
				u += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE >= 0 {
		u += curE - curS
	}
	return len(iv), busy, float64(u) / 1e9, durs
}

// writeCSV dumps every span as name,start_ns,end_ns,parent,pass.
func (t *tracer) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,pass")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.Name, s.Start, s.End, s.Parent, s.Pass)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names at the wrapped interfaces.
const (
	spanGet    = "fetch.get"
	spanHead   = "fetch.head"
	spanSink   = "checkpoint.sink"
	spanSelect = "bandit.select"
)

// policyOp is one call the SB crawler made on its bandit.Policy, in order:
// the exact op stream the frontier and bandit replays re-drive.
type policyOp struct {
	arm    int32
	ensure bool // EnsureArm(arm) — one link pushed under arm; else Select → arm
}

// maxCheckpointBytes bounds the frontier blobs a traced crawl retains for
// the codec replay.
const maxCheckpointBytes = 64 << 20

// jobTrace is what one traced crawl captured: the stream of URLs its fetch
// boundary saw, the bandit op log and its checkpoints.
type jobTrace struct {
	tr   *tracer
	span int // the crawl's library-call span

	mu   sync.Mutex
	gets []string // GET URLs in the order the boundary served them

	ops []policyOp // written from the crawl goroutine only

	checkpoints int
	ckpts       []core.Checkpoint // retained up to maxCheckpointBytes
	ckptBytes   int
}

// tracedFetcher is the span wrapper at the bottom fetch.Fetcher.
type tracedFetcher struct {
	next   fetch.Fetcher
	j      *jobTrace
	record bool // also capture the URL stream here
}

func (f *tracedFetcher) Get(u string) (fetch.Response, error) {
	id := f.j.tr.begin(spanGet, f.j.span)
	resp, err := f.next.Get(u)
	f.j.tr.end(id)
	if f.record {
		f.j.addGet(u)
	}
	return resp, err
}

func (j *jobTrace) addGet(u string) {
	j.mu.Lock()
	j.gets = append(j.gets, u)
	j.mu.Unlock()
}

// streamRecorder captures the URL stream above a layer that answers some
// requests itself (fetch.Replay), where the span wrapper below sees only the
// misses.
type streamRecorder struct {
	fetch.Fetcher
	j *jobTrace
}

func (f *streamRecorder) Get(u string) (fetch.Response, error) {
	f.j.addGet(u)
	return f.Fetcher.Get(u)
}

func (f *tracedFetcher) Head(u string) (fetch.Response, error) {
	id := f.j.tr.begin(spanHead, f.j.span)
	resp, err := f.next.Head(u)
	f.j.tr.end(id)
	return resp, err
}

// tracedSink is the span wrapper at core.Checkpointer: it spans the durable
// sink and keeps the checkpoints for the codec replay.
type tracedSink struct {
	next core.Checkpointer
	j    *jobTrace
}

func (s *tracedSink) Checkpoint(cp core.Checkpoint) {
	j := s.j
	j.checkpoints++
	if size := len(cp.Frontier); j.ckptBytes+size <= maxCheckpointBytes {
		j.ckpts = append(j.ckpts, cp)
		j.ckptBytes += size
	}
	id := j.tr.begin(spanSink, j.span)
	s.next.Checkpoint(cp)
	j.tr.end(id)
}

// tracedPolicy is the span wrapper at bandit.Policy (core.SBConfig.Policy):
// it times Select and logs the op stream.
type tracedPolicy struct {
	bandit.Policy
	j *jobTrace
}

func (p *tracedPolicy) EnsureArm(arm int) {
	p.j.ops = append(p.j.ops, policyOp{arm: int32(arm), ensure: true})
	p.Policy.EnsureArm(arm)
}

func (p *tracedPolicy) Select(available []int, t int) (int, bool) {
	id := p.j.tr.begin(spanSelect, p.j.span)
	arm, ok := p.Policy.Select(available, t)
	p.j.tr.end(id)
	if ok {
		p.j.ops = append(p.j.ops, policyOp{arm: int32(arm)})
	}
	return arm, ok
}
