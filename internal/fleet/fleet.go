// Package fleet orchestrates many independent crawls over a worker pool,
// the multi-site scaling layer of the reproduction: the paper evaluates
// SB-CLASSIFIER across ~20 websites, and production crawlers (BUbiNG-style)
// gain their throughput by parallelizing across sites while keeping
// per-host politeness. Each job owns its crawler and Env, so results are
// byte-identical whatever the worker count; per-job failures are isolated
// and reported per site instead of aborting the batch.
package fleet

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"sbcrawl/internal/core"
	"sbcrawl/internal/fabric"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/metrics"
)

// Options configures a fleet run.
type Options struct {
	// Workers is the number of crawls running concurrently
	// (0 → runtime.GOMAXPROCS(0)).
	Workers int
	// Ctx cancels the fleet: undispatched jobs are skipped with the
	// context's error, and running crawls stop at their next request when
	// their Env carries the same context.
	Ctx context.Context
}

// Job is one crawl of a fleet. Run receives the fleet's context so the job
// can wire it into its Env (core.Env.Ctx) for mid-crawl cancellation. Jobs
// must not share mutable state: each builds its own crawler, Env, and
// fetcher.
type Job struct {
	// Label identifies the site in the summary (a root URL or site code).
	Label string
	// Run executes the crawl.
	Run func(ctx context.Context) (*core.Result, error)
}

// SiteResult is the outcome of one job, in input order.
type SiteResult struct {
	Index  int
	Label  string
	Result *core.Result // nil when the job failed before producing one
	Err    error        // non-nil for failed or skipped jobs
}

// Summary aggregates a fleet run.
type Summary struct {
	// Sites holds one entry per job, in input order.
	Sites []SiteResult
	// Completed and Failed partition the jobs (skipped jobs count as
	// failed, with the context's error).
	Completed, Failed int
	// Totals over every job that produced a result.
	Targets        int
	Requests       int
	HeadRequests   int
	TargetBytes    int64
	NonTargetBytes int64
	// Trace merges the per-site progress traces position-wise (see
	// metrics.MergeTraces): point i is the fleet's cumulative state after
	// every site issued its i-th request.
	Trace *core.Trace
	// Spec sums the speculation counters of every pipelined crawl that
	// produced a result (zero when none speculated). Wall-clock diagnostic
	// only — the counters depend on fetch timing, never on results.
	Spec fetch.PrefetchStats
	// Fabric aggregates Result.Fabric over every partitioned crawl that
	// produced a result (zero when none partitioned): summed demand
	// counters, element-wise summed per-partition launch counts, and the
	// maximum partition count seen. Wall-clock diagnostic only, like Spec.
	Fabric fabric.Stats
	// Faults sums the fault-handling counters (retries, breaker activity,
	// final failures) of every crawl that produced a result; quarantined
	// host lists are concatenated. Zero when nothing failed anywhere.
	Faults fetch.FaultStats
}

// errNotRun marks jobs the pool never dispatched (context cancelled first).
var errNotRun = errors.New("fleet: crawl not started")

// Run executes the jobs over a worker pool and aggregates their results.
// Per-job errors do not abort the batch — they are recorded in the summary
// and counted in Failed. The only non-nil error Run itself returns is the
// context's, when the fleet was cancelled; the partial summary is still
// returned alongside it.
func Run(jobs []Job, opts Options) (*Summary, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	sum := &Summary{Sites: make([]SiteResult, len(jobs))}
	for i := range jobs {
		sum.Sites[i] = SiteResult{Index: i, Label: jobs[i].Label, Err: errNotRun}
	}
	// The pool is Do's; job errors are isolated by always returning nil
	// from the callback, so the only way Do errors is the context.
	_ = Do(ctx, opts.Workers, len(jobs), func(i int) error {
		// Do's dispatcher can still hand out indices after cancellation
		// (both select cases ready); skip them here so cancelled fleets
		// deterministically report every unstarted crawl as skipped
		// rather than a random subset as zero-request successes.
		if ctx.Err() != nil {
			return nil
		}
		res, err := jobs[i].Run(ctx)
		// Each index is dispatched exactly once, so writing the i-th
		// slot is race-free.
		sum.Sites[i].Result = res
		sum.Sites[i].Err = err
		return nil
	})

	for i := range sum.Sites {
		s := &sum.Sites[i]
		if errors.Is(s.Err, errNotRun) {
			s.Err = ctx.Err()
			if s.Err == nil {
				s.Err = context.Canceled // unreachable, but never report "not run" as success
			}
		}
		if s.Err != nil {
			sum.Failed++
		} else {
			sum.Completed++
		}
		if s.Result != nil {
			sum.Targets += len(s.Result.Targets)
			sum.Requests += s.Result.Requests
			sum.HeadRequests += s.Result.HeadRequests
			sum.TargetBytes += s.Result.TargetBytes
			sum.NonTargetBytes += s.Result.NonTargetBytes
			if sp := s.Result.Spec; sp != nil {
				sum.Spec.Launched += sp.Launched
				sum.Spec.Hits += sp.Hits
				sum.Spec.Misses += sp.Misses
				sum.Spec.Evicted += sp.Evicted
				sum.Spec.HeadHits += sp.HeadHits
				sum.Spec.SharedHits += sp.SharedHits
			}
			if fb := s.Result.Fabric; fb != nil {
				if fb.Partitions > sum.Fabric.Partitions {
					sum.Fabric.Partitions = fb.Partitions
				}
				sum.Fabric.DemandHits += fb.DemandHits
				sum.Fabric.DemandMisses += fb.DemandMisses
				for len(sum.Fabric.PartitionFetches) < len(fb.PartitionFetches) {
					sum.Fabric.PartitionFetches = append(sum.Fabric.PartitionFetches, 0)
				}
				for i, n := range fb.PartitionFetches {
					sum.Fabric.PartitionFetches[i] += n
				}
			}
			if fs := s.Result.Faults; fs != nil {
				sum.Faults.Add(*fs)
			}
		}
	}
	traces := make([]*core.Trace, 0, len(sum.Sites))
	for _, s := range sum.Sites {
		if s.Result != nil {
			traces = append(traces, s.Result.Trace)
		}
	}
	sum.Trace = metrics.MergeTraces(traces)
	return sum, ctx.Err()
}

// Do fans fn out over indices 0..n-1 with the given worker count (0 → all
// cores), failing fast: the first error cancels the remaining undispatched
// indices and is returned. In-flight calls run to completion. Callers own
// any output ordering — writing result i into slot i of a pre-sized slice
// keeps reports identical whatever the worker count.
func Do(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-cctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// DeriveSeed maps a base seed and a site index to a per-site seed with a
// splitmix64 finalizer: distinct indices get well-separated streams, and
// the derivation depends only on (base, index) — never on worker count or
// scheduling — so fleet results are reproducible.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // non-negative, keeps downstream rand sources happy
}
