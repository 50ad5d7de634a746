package fleet

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"sbcrawl/internal/core"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/sitegen"
	"sbcrawl/internal/webserver"
)

// crawlJobs builds one SB crawl job per site code, each over its own
// freshly generated site and Env (the isolation contract jobs must honor).
func crawlJobs(t *testing.T, codes []string, baseSeed int64) []Job {
	t.Helper()
	jobs := make([]Job, len(codes))
	for i, code := range codes {
		p, ok := sitegen.ProfileByCode(code)
		if !ok {
			t.Fatalf("unknown site %q", code)
		}
		seed := DeriveSeed(baseSeed, i)
		jobs[i] = Job{Label: code, Run: func(ctx context.Context) (*core.Result, error) {
			site := sitegen.Generate(sitegen.Config{Profile: p, Scale: 0.0005, Seed: 7, MaxPages: 120})
			env := &core.Env{
				Root:    site.Root(),
				Fetcher: fetch.NewSim(webserver.New(site)),
				Ctx:     ctx,
			}
			return core.NewSB(core.SBConfig{Seed: seed}).Run(env)
		}}
	}
	return jobs
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	codes := []string{"cl", "cn", "qa", "ok", "ab"}
	var ref *Summary
	for _, workers := range []int{1, 4, 8} {
		sum, err := Run(crawlJobs(t, codes, 42), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Completed != len(codes) || sum.Failed != 0 {
			t.Fatalf("workers=%d: completed=%d failed=%d", workers, sum.Completed, sum.Failed)
		}
		if ref == nil {
			ref = sum
			continue
		}
		if !reflect.DeepEqual(ref, sum) {
			t.Errorf("workers=%d: summary differs from workers=1", workers)
		}
	}
	if ref.Targets == 0 || ref.Requests == 0 {
		t.Errorf("fleet found no work: %+v", ref)
	}
}

func TestRunAggregationMatchesSequentialSum(t *testing.T) {
	codes := []string{"cl", "cn", "qa"}
	sum, err := Run(crawlJobs(t, codes, 1), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var targets, requests, heads int
	var tb, ntb int64
	maxTrace := 0
	for i, job := range crawlJobs(t, codes, 1) {
		res, err := job.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, sum.Sites[i].Result) {
			t.Errorf("site %s: fleet result differs from a standalone run", codes[i])
		}
		targets += len(res.Targets)
		requests += res.Requests
		heads += res.HeadRequests
		tb += res.TargetBytes
		ntb += res.NonTargetBytes
		if res.Trace.Len() > maxTrace {
			maxTrace = res.Trace.Len()
		}
	}
	if sum.Targets != targets || sum.Requests != requests || sum.HeadRequests != heads ||
		sum.TargetBytes != tb || sum.NonTargetBytes != ntb {
		t.Errorf("aggregates %+v != sequential sums (t=%d r=%d h=%d tb=%d ntb=%d)",
			sum, targets, requests, heads, tb, ntb)
	}
	if sum.Trace.Len() != maxTrace {
		t.Errorf("merged trace len = %d, want longest site trace %d", sum.Trace.Len(), maxTrace)
	}
	last := sum.Trace.Len() - 1
	if int(sum.Trace.Targets[last]) != targets {
		t.Errorf("merged trace final targets = %d, want %d", sum.Trace.Targets[last], targets)
	}
}

func TestRunIsolatesJobErrors(t *testing.T) {
	boom := errors.New("boom")
	jobs := crawlJobs(t, []string{"cl", "cn", "qa"}, 3)
	jobs[1] = Job{Label: "bad", Run: func(context.Context) (*core.Result, error) {
		return nil, boom
	}}
	sum, err := Run(jobs, Options{Workers: 3})
	if err != nil {
		t.Fatalf("a job error must not fail the batch: %v", err)
	}
	if sum.Completed != 2 || sum.Failed != 1 {
		t.Errorf("completed=%d failed=%d, want 2/1", sum.Completed, sum.Failed)
	}
	if !errors.Is(sum.Sites[1].Err, boom) || sum.Sites[1].Result != nil {
		t.Errorf("bad site outcome: %+v", sum.Sites[1])
	}
	for _, i := range []int{0, 2} {
		if sum.Sites[i].Err != nil || sum.Sites[i].Result == nil {
			t.Errorf("good site %d was dragged down: %+v", i, sum.Sites[i])
		}
	}
}

func TestRunCancellationMidFleet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 16)
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Label: "slow", Run: func(ctx context.Context) (*core.Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}}
	}
	go func() {
		<-started
		<-started
		cancel()
	}()
	sum, err := Run(jobs, Options{Workers: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum.Failed != len(jobs) || sum.Completed != 0 {
		t.Errorf("failed=%d completed=%d, want all %d failed", sum.Failed, sum.Completed, len(jobs))
	}
	for i, s := range sum.Sites {
		if !errors.Is(s.Err, context.Canceled) {
			t.Errorf("site %d err = %v, want context.Canceled", i, s.Err)
		}
	}
}

func TestDoCoversAllIndices(t *testing.T) {
	const n = 37
	var mu sync.Mutex
	seen := make(map[int]int)
	err := Do(context.Background(), 5, n, func(i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("covered %d indices, want %d", len(seen), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}

func TestDoFailsFast(t *testing.T) {
	boom := errors.New("boom")
	var mu sync.Mutex
	ran := 0
	err := Do(context.Background(), 1, 100, func(i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		if i == 3 {
			return boom
		}
		// Give the dispatcher a beat so cancellation lands.
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran >= 100 {
		t.Errorf("all %d indices ran despite the early error", ran)
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(1, i)
		if s < 0 {
			t.Fatalf("DeriveSeed(1, %d) = %d, want non-negative", i, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("indices %d and %d collide on seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if DeriveSeed(1, 5) != DeriveSeed(1, 5) {
		t.Error("DeriveSeed must be deterministic")
	}
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Error("distinct bases must give distinct streams")
	}
}

// TestRunDispatchOrder: a single worker dispatches jobs in input order, and
// the summary stays in input order.
func TestRunDispatchOrder(t *testing.T) {
	var (
		mu      sync.Mutex
		started []int
	)
	jobs := make([]Job, 4)
	for i := range jobs {
		i := i
		jobs[i] = Job{Label: string(rune('a' + i)), Run: func(context.Context) (*core.Result, error) {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			return &core.Result{Crawler: "t", Requests: i}, nil
		}}
	}
	sum, err := Run(jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(started, want) {
		t.Errorf("dispatch order = %v, want %v", started, want)
	}
	for i, s := range sum.Sites {
		if s.Index != i || s.Result == nil || s.Result.Requests != i {
			t.Errorf("summary slot %d out of input order: %+v", i, s)
		}
	}
}
