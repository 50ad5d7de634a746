package fetch

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingFetcher is a concurrency-safe scripted backend that records its
// traffic and can simulate a round trip.
type countingFetcher struct {
	mu    sync.Mutex
	gets  map[string]int
	delay time.Duration
	peak  int32 // highest number of concurrent Gets observed
	cur   int32
}

func newCountingFetcher(delay time.Duration) *countingFetcher {
	return &countingFetcher{gets: make(map[string]int), delay: delay}
}

func (f *countingFetcher) Get(url string) (Response, error) {
	cur := atomic.AddInt32(&f.cur, 1)
	for {
		peak := atomic.LoadInt32(&f.peak)
		if cur <= peak || atomic.CompareAndSwapInt32(&f.peak, peak, cur) {
			break
		}
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	f.gets[url]++
	f.mu.Unlock()
	atomic.AddInt32(&f.cur, -1)
	return Response{URL: url, Status: 200, MIME: "text/html", Body: []byte(url)}, nil
}

func (f *countingFetcher) Head(url string) (Response, error) {
	return Response{URL: url, Status: 200, MIME: "text/html"}, nil
}

func (f *countingFetcher) count(url string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets[url]
}

func TestPrefetcherServesHintedURL(t *testing.T) {
	backend := newCountingFetcher(0)
	p := NewPrefetcher(backend)
	defer p.Close()
	p.Hint(4, "https://s.org/a")
	resp, err := p.Get("https://s.org/a")
	if err != nil || resp.Status != 200 || string(resp.Body) != "https://s.org/a" {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if backend.count("https://s.org/a") != 1 {
		t.Errorf("backend saw %d fetches, want exactly 1 (speculation consumed)", backend.count("https://s.org/a"))
	}
	st := p.Stats()
	if st.Hits != 1 || st.Launched != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPrefetcherConsumeOnce(t *testing.T) {
	backend := newCountingFetcher(0)
	p := NewPrefetcher(backend)
	defer p.Close()
	p.Hint(4, "u")
	if _, err := p.Get("u"); err != nil {
		t.Fatal(err)
	}
	// Second Get must fall through to the backend, not a stale cache.
	if _, err := p.Get("u"); err != nil {
		t.Fatal(err)
	}
	if got := backend.count("u"); got != 2 {
		t.Errorf("backend fetches = %d, want 2 (consume-once)", got)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPrefetcherWindowBoundsInFlight(t *testing.T) {
	backend := newCountingFetcher(20 * time.Millisecond)
	p := NewPrefetcher(backend)
	urls := make([]string, 10)
	for i := range urls {
		urls[i] = fmt.Sprintf("u%d", i)
	}
	p.Hint(3, urls...)
	p.Close() // waits for every launched fetch
	if st := p.Stats(); st.Launched != 3 {
		t.Errorf("launched %d speculative fetches, window is 3", st.Launched)
	}
	if peak := atomic.LoadInt32(&backend.peak); peak > 3 {
		t.Errorf("observed %d concurrent fetches, window is 3", peak)
	}
}

// TestPrefetcherSetWindow: the window is set per Hint batch. A later batch
// under a wider bound launches up to that bound, counting the fetches the
// narrower batch left in flight.
func TestPrefetcherSetWindow(t *testing.T) {
	backend := newGatedFetcher()
	p := NewPrefetcher(backend)
	urls := make([]string, 16)
	for i := range urls {
		urls[i] = fmt.Sprintf("u%d", i)
	}
	p.Hint(2, urls...)
	if st := p.Stats(); st.Launched != 2 {
		t.Errorf("launched = %d, want the window 2", st.Launched)
	}
	p.Hint(8, urls...)
	if st := p.Stats(); st.Launched != 8 {
		t.Errorf("launched = %d, want the widened window 8", st.Launched)
	}
	close(backend.release)
	p.Close() // waits for every launched fetch
	if peak := atomic.LoadInt32(&backend.peak); peak > 8 {
		t.Errorf("observed %d concurrent fetches, window is 8", peak)
	}
}

func TestPrefetcherDuplicateHintsCoalesce(t *testing.T) {
	backend := newCountingFetcher(0)
	p := NewPrefetcher(backend)
	p.Hint(8, "u", "u", "u")
	p.Hint(8, "u")
	p.Close()
	if got := backend.count("u"); got != 1 {
		t.Errorf("backend fetches = %d, want 1 (hints coalesce)", got)
	}
}

func TestPrefetcherCloseQuiesces(t *testing.T) {
	backend := newCountingFetcher(10 * time.Millisecond)
	p := NewPrefetcher(backend)
	p.Hint(4, "a", "b", "c")
	p.Close()
	if cur := atomic.LoadInt32(&backend.cur); cur != 0 {
		t.Errorf("%d fetches still in flight after Close", cur)
	}
	p.Hint(4, "d") // post-Close hints are dropped
	if st := p.Stats(); st.Launched != 3 {
		t.Errorf("launched = %d after post-Close hint, want 3", st.Launched)
	}
}

func TestPrefetcherEvictsOldestWhenStoreFull(t *testing.T) {
	backend := newCountingFetcher(0)
	p := NewPrefetcher(backend) // hints at bound 1: store cap = 1 * storedFactor
	defer p.Close()
	// Fill the store with never-consumed speculation, one at a time so
	// the single-wide window never blocks a launch.
	for i := 0; i < storedFactor; i++ {
		p.Hint(1, fmt.Sprintf("stale%d", i))
		// Wait for the fetch to land so the next Hint may launch.
		waitIdle(t, p)
	}
	p.Hint(1, "fresh")
	waitIdle(t, p)
	st := p.Stats()
	if st.Launched != storedFactor+1 {
		t.Fatalf("launched = %d, want %d (eviction must free a slot)", st.Launched, storedFactor+1)
	}
	if st.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", st.Evicted)
	}
	// The evicted entry was the oldest; "fresh" must still be resident.
	if _, err := p.Get("fresh"); err != nil {
		t.Fatal(err)
	}
	if got := backend.count("fresh"); got != 1 {
		t.Errorf("fresh fetched %d times, want 1 (still cached)", got)
	}
	// An evicted URL must never be speculated again: the frontier will
	// keep hinting it, and a live crawl must not pay duplicate GETs.
	p.Hint(1, "stale0")
	waitIdle(t, p)
	if got := backend.count("stale0"); got != 1 {
		t.Errorf("evicted stale0 re-fetched speculatively (%d fetches)", got)
	}
}

// TestPrefetcherNeverSpeculatesTwice pins that a consumed speculation is
// not relaunched by later hints: speculative traffic per URL is at most 1.
func TestPrefetcherNeverSpeculatesTwice(t *testing.T) {
	backend := newCountingFetcher(0)
	p := NewPrefetcher(backend)
	defer p.Close()
	p.Hint(4, "u")
	if _, err := p.Get("u"); err != nil { // consumes the speculation
		t.Fatal(err)
	}
	p.Hint(4, "u")
	waitIdle(t, p)
	if got := backend.count("u"); got != 1 {
		t.Errorf("backend fetches = %d, want 1 (no re-speculation)", got)
	}
	if st := p.Stats(); st.Launched != 1 {
		t.Errorf("launched = %d, want 1", st.Launched)
	}
}

// gatedFetcher blocks every Get/Head until release is closed, for tests
// that need entries pinned in flight.
type gatedFetcher struct {
	countingFetcher
	release chan struct{}
}

func newGatedFetcher() *gatedFetcher {
	return &gatedFetcher{
		countingFetcher: countingFetcher{gets: make(map[string]int)},
		release:         make(chan struct{}),
	}
}

func (f *gatedFetcher) Get(url string) (Response, error) {
	<-f.release
	return f.countingFetcher.Get(url)
}

func (f *gatedFetcher) Head(url string) (Response, error) {
	<-f.release
	return f.countingFetcher.Head(url)
}

// memShared is an in-memory SharedStore for tests.
type memShared struct {
	mu        sync.Mutex
	m         map[string]Response
	published int
}

func newMemShared() *memShared { return &memShared{m: make(map[string]Response)} }

func (s *memShared) Lookup(u string) (Response, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[u]
	return r, ok
}

func (s *memShared) Contains(u string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[u]
	return ok
}

func (s *memShared) Publish(u string, r Response) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[u]; !ok {
		s.m[u] = r
		s.published++
	}
}

func TestPrefetcherSpeculativeHeadConsumeOnce(t *testing.T) {
	backend := newCountingFetcher(0)
	p := NewPrefetcher(backend)
	defer p.Close()
	p.HintDemands(4, Demand{URL: "u", Head: true})
	waitIdle(t, p)
	resp, err := p.Head("u")
	if err != nil || resp.Status != 200 {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if st := p.Stats(); st.Launched != 1 || st.HeadHits != 1 {
		t.Errorf("stats = %+v, want 1 launch and 1 head hit", st)
	}
	// Consume-once: a second Head falls through to the backend.
	if _, err := p.Head("u"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.HeadHits != 1 {
		t.Errorf("second Head served speculatively: %+v", st)
	}
	// A speculated HEAD must not block a later GET speculation of the
	// same URL (independent namespaces).
	p.Hint(4, "u")
	waitIdle(t, p)
	if st := p.Stats(); st.Launched != 2 {
		t.Errorf("launched = %d, want 2 (HEAD and GET speculate independently)", st.Launched)
	}
}

func TestPrefetcherHeadServedFromResidentGet(t *testing.T) {
	backend := newCountingFetcher(0)
	p := NewPrefetcher(backend)
	defer p.Close()
	p.Hint(4, "u")
	waitIdle(t, p)
	resp, err := p.Head("u")
	if err != nil || resp.Status != 200 {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if resp.Body != nil {
		t.Error("a HEAD served from a speculative GET must carry no body")
	}
	if st := p.Stats(); st.HeadHits != 1 {
		t.Errorf("stats = %+v, want the HEAD counted as a head hit", st)
	}
	// Non-consuming: the GET speculation is still resident for the real Get.
	if _, err := p.Get("u"); err != nil {
		t.Fatal(err)
	}
	if got := backend.count("u"); got != 1 {
		t.Errorf("backend GETs = %d, want 1 (HEAD must not consume the speculation)", got)
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Errorf("stats = %+v, want the Get to hit the still-resident speculation", st)
	}
}

// TestPrefetcherHintScansFullBatch pins what a full in-flight window leaves
// behind: the URLs it refuses are untouched — not spent — so they remain
// speculatable once the window frees up.
func TestPrefetcherHintScansFullBatch(t *testing.T) {
	backend := newGatedFetcher()
	p := NewPrefetcher(backend)
	p.Hint(1, "a") // fills the single-slot window, pinned in flight
	p.Hint(1, "b", "a", "c")
	if st := p.Stats(); st.Launched != 1 {
		t.Fatalf("launched = %d, want 1 (window full)", st.Launched)
	}
	p.mu.Lock()
	for _, u := range []string{"b", "c"} {
		if _, ok := p.spent[u]; ok {
			t.Errorf("skipped %q was marked spent", u)
		}
	}
	p.mu.Unlock()
	close(backend.release)
	waitIdle(t, p)
	if _, err := p.Get("a"); err != nil {
		t.Fatal(err)
	}
	// The window is free again: the previously skipped URLs still launch.
	p.Hint(1, "b", "c")
	waitIdle(t, p)
	p.Hint(1, "c")
	waitIdle(t, p)
	p.Close()
	if st := p.Stats(); st.Launched != 3 {
		t.Errorf("launched = %d, want 3 (b and c must still be speculatable)", st.Launched)
	}
}

// TestPrefetcherEvictionAllInFlight pins the eviction edge case: when every
// stored entry is still in flight there is nothing to free — eviction keeps
// the store intact without deadlocking or abandoning a running fetch.
func TestPrefetcherEvictionAllInFlight(t *testing.T) {
	backend := newGatedFetcher()
	p := NewPrefetcher(backend)
	p.Hint(4, "a", "b", "c", "d") // four pinned in-flight entries
	p.mu.Lock()
	if got := len(p.store); got != 4 {
		p.mu.Unlock()
		t.Fatalf("store holds %d entries, want 4", got)
	}
	p.evictOldestLocked()
	if len(p.store) != 4 || len(p.order) != 4 || p.stats.Evicted != 0 {
		p.mu.Unlock()
		t.Fatalf("eviction over in-flight entries mutated the store: store=%d order=%d evicted=%d",
			len(p.store), len(p.order), p.stats.Evicted)
	}
	p.mu.Unlock()
	close(backend.release)
	waitIdle(t, p)
	// Landed now: the oldest landed entry is evictable, exactly once per
	// call, oldest-first.
	p.mu.Lock()
	p.evictOldestLocked()
	_, aGone := p.store["a"]
	_, bThere := p.store["b"]
	p.mu.Unlock()
	if aGone || !bThere {
		t.Error("eviction order broken: want oldest (a) evicted, b kept")
	}
	p.Close()
	if st := p.Stats(); st.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", st.Evicted)
	}
}

// TestPrefetcherCompactionBoundary pins the order-queue compaction
// threshold: holes are tolerated up to 2·live + bound·storedFactor and
// compacted away on the first Hint beyond it, so the queue's length tracks
// the live entries, not the crawl's history.
func TestPrefetcherCompactionBoundary(t *testing.T) {
	backend := newCountingFetcher(0)
	p := NewPrefetcher(backend)
	defer p.Close()
	threshold := storeCap(1) // no live entries: 2*0 + cap
	// Leave exactly threshold holes: hint+consume one URL at a time (the
	// waitIdle keeps the next Hint from racing the in-flight decrement of
	// the fetch the Get just consumed).
	for i := 0; i < threshold; i++ {
		u := fmt.Sprintf("u%d", i)
		p.Hint(1, u)
		if _, err := p.Get(u); err != nil {
			t.Fatal(err)
		}
		waitIdle(t, p)
	}
	p.mu.Lock()
	holes := len(p.order)
	p.mu.Unlock()
	if holes != threshold {
		t.Fatalf("order holds %d holes, want %d (at the boundary, uncompacted)", holes, threshold)
	}
	// One more hole crosses the boundary; the next Hint must compact.
	p.Hint(1, "over")
	if _, err := p.Get("over"); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, p)
	p.Hint(1, "fresh")
	p.mu.Lock()
	after := len(p.order)
	p.mu.Unlock()
	if after != 1 {
		t.Errorf("order length after compaction = %d, want 1 (just the live entry)", after)
	}
	// Long-run bound: with one live entry resident, the queue never grows
	// past 2·live + threshold + 1 before the next Hint compacts it.
	for i := 0; i < 10*threshold; i++ {
		u := fmt.Sprintf("v%d", i)
		p.Hint(1, u)
		if _, err := p.Get(u); err != nil {
			t.Fatal(err)
		}
		waitIdle(t, p)
		p.mu.Lock()
		n := len(p.order)
		p.mu.Unlock()
		if n > threshold+3 {
			t.Fatalf("order grew to %d, bound is %d", n, threshold+3)
		}
	}
}

func TestPrefetcherSharedStore(t *testing.T) {
	backend := newCountingFetcher(0)
	shared := newMemShared()
	shared.m["warm"] = Response{URL: "warm", Status: 200, MIME: "text/html", Body: []byte("warm")}
	p := NewPrefetcher(backend)
	p.SetShared(shared)
	defer p.Close()

	// A hint for a shared-resident URL launches nothing: the hit is free.
	p.Hint(4, "warm")
	waitIdle(t, p)
	if st := p.Stats(); st.Launched != 0 {
		t.Fatalf("launched = %d speculations for a shared-resident URL", st.Launched)
	}
	resp, err := p.Get("warm")
	if err != nil || string(resp.Body) != "warm" {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if got := backend.count("warm"); got != 0 {
		t.Errorf("backend GETs = %d, want 0 (served from the shared cache)", got)
	}
	if st := p.Stats(); st.Hits != 1 || st.SharedHits != 1 {
		t.Errorf("stats = %+v, want a shared hit counted", st)
	}
	// A HEAD is served from the shared GET too, body stripped.
	if resp, err := p.Head("warm"); err != nil || resp.Body != nil || resp.Status != 200 {
		t.Errorf("shared HEAD: resp=%+v err=%v", resp, err)
	}

	// Speculative and demand fetches both publish for the fleet.
	p.Hint(4, "spec")
	waitIdle(t, p)
	if _, err := p.Get("spec"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get("demand"); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"spec", "demand"} {
		if _, ok := shared.Lookup(u); !ok {
			t.Errorf("%s was not published to the shared store", u)
		}
	}
}

// TestPrefetcherConcurrentAccess exercises Hint/HintDemands/Get/Head/Stats
// from many goroutines at once, each Hint batch under its own bound; it
// exists for the -race pass of the CI gate, which watches the speculative
// layer under real interleaving.
func TestPrefetcherConcurrentAccess(t *testing.T) {
	backend := newCountingFetcher(100 * time.Microsecond)
	shared := newMemShared()
	p := NewPrefetcher(backend)
	p.SetShared(shared)
	const n = 60
	var wg sync.WaitGroup
	wg.Add(5)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			p.Hint(1+i%8, fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", i+1))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			p.HintDemands(4, Demand{URL: fmt.Sprintf("u%d", i), Head: true})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := p.Get(fmt.Sprintf("u%d", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := p.Head(fmt.Sprintf("u%d", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_ = p.Stats()
		}
	}()
	wg.Wait()
	p.Close()
	st := p.Stats()
	if st.Hits+st.Misses != n {
		t.Errorf("gets = %d, want %d", st.Hits+st.Misses, n)
	}
}

// waitIdle blocks until the prefetcher has no fetch in flight.
func waitIdle(t *testing.T, p *Prefetcher) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		pending := p.pending
		p.mu.Unlock()
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("prefetcher never went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// flakyFirstFetcher answers each URL's first GET with a 503 and every later
// one with countingFetcher's 200.
type flakyFirstFetcher struct {
	countingFetcher
	seen sync.Map
}

func (f *flakyFirstFetcher) Get(url string) (Response, error) {
	if _, again := f.seen.LoadOrStore(url, true); !again {
		return Response{URL: url, Status: 503}, nil
	}
	return f.countingFetcher.Get(url)
}

// publishCounter is a SharedStore that holds nothing and counts every
// Publish call per URL.
type publishCounter struct {
	mu        sync.Mutex
	published map[string]int
}

func (s *publishCounter) Lookup(string) (Response, bool) { return Response{}, false }
func (s *publishCounter) Contains(string) bool           { return false }
func (s *publishCounter) Publish(u string, _ Response) {
	s.mu.Lock()
	s.published[u]++
	s.mu.Unlock()
}

// TestPrefetcherSharesRefetchAfterFailedSpeculation: when a speculative GET
// failed transiently, the demand path fetches again, and that answer is
// published to the fleet like any demand miss's — once, and the failure not
// at all.
func TestPrefetcherSharesRefetchAfterFailedSpeculation(t *testing.T) {
	backend := &flakyFirstFetcher{countingFetcher: *newCountingFetcher(0)}
	shared := &publishCounter{published: make(map[string]int)}
	p := NewPrefetcher(backend)
	p.SetShared(shared)
	defer p.Close()
	p.Hint(4, "u")
	waitIdle(t, p)
	resp, err := p.Get("u")
	if err != nil || resp.Status != 200 {
		t.Fatalf("demand GET after a failed speculation: resp=%+v err=%v", resp, err)
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if got := shared.published["u"]; got != 1 {
		t.Errorf("published %d times, want once", got)
	}
}

// TestHintDemandsBoundIsTheCallers: a batch of demands launches up to the
// caller's bound whatever the window's width, the bound counts what Hint
// already started, and HEADs and GETs of one URL are tracked apart.
func TestHintDemandsBoundIsTheCallers(t *testing.T) {
	backend := newGatedFetcher()
	p := NewPrefetcher(backend)
	p.Hint(1, "a") // the window's one slot
	batch := make([]Demand, 12)
	for i := range batch {
		batch[i] = Demand{URL: fmt.Sprintf("u%d", i), Head: i%2 == 1}
	}
	p.HintDemands(8, batch...)
	if st := p.Stats(); st.Launched != 8 {
		t.Errorf("launched %d, want 8 (1 hinted + 7 of the batch under a bound of 8)", st.Launched)
	}
	p.Hint(1, "b") // the window is still full
	if st := p.Stats(); st.Launched != 8 {
		t.Errorf("Hint launched past a full window: %+v", st)
	}
	close(backend.release)
	waitIdle(t, p)
	if _, err := p.Get("u0"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Head("u1"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 || st.HeadHits != 1 {
		t.Errorf("stats = %+v, want the batch's GET and HEAD served from speculation", st)
	}
	p.Close()
}

// probeShared is a memShared that records every residency probe.
type probeShared struct {
	*memShared
	probed []string
}

func (s *probeShared) Contains(u string) bool {
	s.probed = append(s.probed, u)
	return s.memShared.Contains(u)
}

// tracked reports whether the Prefetcher holds key in its store or its
// spent set.
func tracked(p *Prefetcher, key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, stored := p.store[key]
	_, spent := p.spent[key]
	return stored || spent
}

// TestHintReportsSettledPrefix pins Hint's settled prefix — the leading run
// of the batch that is tracked once it returns — and where a batch's scan
// stops: at the first URL the in-flight bound refuses, for Hint and
// HintDemands alike, but not at a shared-resident URL or a full store, which
// evicts its oldest landed entry.
func TestHintReportsSettledPrefix(t *testing.T) {
	t.Run("tracked and spent", func(t *testing.T) {
		backend := newGatedFetcher()
		p := NewPrefetcher(backend)
		if got := p.Hint(2, "a", "b"); got != 2 {
			t.Fatalf("Hint launching both = %d, want 2", got)
		}
		close(backend.release)
		waitIdle(t, p)
		if _, err := p.Get("a"); err != nil { // a spent, b resident
			t.Fatal(err)
		}
		if got := p.Hint(8, "a", "b"); got != 2 {
			t.Errorf("Hint over spent and resident = %d, want 2", got)
		}
		p.Close()
		if st := p.Stats(); st.Launched != 2 {
			t.Errorf("launched %d, want 2 (nothing new)", st.Launched)
		}
	})
	t.Run("in-flight bound", func(t *testing.T) {
		backend := newGatedFetcher()
		shared := &probeShared{memShared: newMemShared()}
		p := NewPrefetcher(backend)
		p.SetShared(shared)
		p.Hint(2, "a") // in flight
		if got := p.Hint(2, "a", "b", "c", "d"); got != 2 {
			t.Errorf("Hint = %d, want 2 (a tracked, b launched, c refused)", got)
		}
		for _, u := range []string{"c", "d"} {
			if tracked(p, u) {
				t.Errorf("%s past the bound was stored or spent", u)
			}
		}
		if want := []string{"a", "b", "c"}; !slices.Equal(shared.probed, want) {
			t.Errorf("probed %q, want %q: the scan must stop at the first refusal", shared.probed, want)
		}
		close(backend.release)
		p.Close()
	})
	t.Run("shared-resident", func(t *testing.T) {
		shared := newMemShared()
		shared.Publish("b", Response{URL: "b", Status: 200})
		p := NewPrefetcher(newCountingFetcher(0))
		p.SetShared(shared)
		if got := p.Hint(4, "a", "b", "c"); got != 1 {
			t.Errorf("Hint = %d, want 1 (the shared cache may evict b)", got)
		}
		p.Close()
		if !tracked(p, "c") || tracked(p, "b") {
			t.Error("want c launched past the shared-resident b, and b left to the shared cache")
		}
	})
	t.Run("store full", func(t *testing.T) {
		// At bound 1, storeCap(1) landed, unconsumed entries fill the store.
		// Under the bound fewer than limit entries are in flight, so a full
		// store always holds a landed entry: each further launch evicts
		// exactly one, the oldest, and the batch stays tracked.
		backend := newGatedFetcher()
		p := NewPrefetcher(backend)
		land := func() { // lets the one fetch in flight land
			backend.release <- struct{}{}
			waitIdle(t, p)
		}
		for i := 0; i < storeCap(1); i++ {
			p.Hint(1, fmt.Sprintf("z%d", i))
			land()
		}
		for i := 0; i < 3; i++ {
			u, oldest := fmt.Sprintf("y%d", i), fmt.Sprintf("z%d", i)
			if got := p.Hint(1, u); got != 1 {
				t.Errorf("Hint(%s) over a full store = %d, want 1", u, got)
			}
			if st := p.Stats(); st.Launched != storeCap(1)+i+1 || st.Evicted != i+1 {
				t.Errorf("after %s: stats = %+v, want one eviction per launch", u, st)
			}
			p.mu.Lock()
			n, resident := len(p.store), p.store[oldest] != nil
			p.mu.Unlock()
			if n != storeCap(1) || resident || !tracked(p, u) || !tracked(p, oldest) {
				t.Errorf("after %s: store holds %d entries, %s resident %v; want %d, %s launched and %s spent",
					u, n, oldest, resident, storeCap(1), u, oldest)
			}
			land()
		}
		p.Close()
	})
	t.Run("HintDemands bound", func(t *testing.T) {
		backend := newGatedFetcher()
		shared := &probeShared{memShared: newMemShared()}
		p := NewPrefetcher(backend)
		p.SetShared(shared)
		p.Hint(1, "a") // in flight
		p.HintDemands(2, Demand{URL: "b"}, Demand{URL: "c", Head: true}, Demand{URL: "d"})
		if st := p.Stats(); st.Launched != 2 {
			t.Errorf("launched %d, want 2 (a, then b under the bound of 2)", st.Launched)
		}
		if tracked(p, headKey("c")) || tracked(p, "d") {
			t.Error("a demand past the bound was stored or spent")
		}
		if want := []string{"a", "b", "c"}; !slices.Equal(shared.probed, want) {
			t.Errorf("probed %q, want %q: the scan must stop at the first refusal", shared.probed, want)
		}
		close(backend.release)
		p.Close()
	})
}

// headAnswerFetcher holds every GET until release is closed and answers a
// HEAD at once with a 204, which no GET returns: a HEAD answer read off a
// speculative GET shows.
type headAnswerFetcher struct{ release chan struct{} }

func (f *headAnswerFetcher) Get(u string) (Response, error) {
	<-f.release
	return Response{URL: u, Status: 200, MIME: "text/html", Body: []byte(u)}, nil
}

func (f *headAnswerFetcher) Head(u string) (Response, error) {
	return Response{URL: u, Status: 204, MIME: "text/plain"}, nil
}

// waitForStack blocks until some goroutine's stack holds every one of frames.
func waitForStack(t *testing.T, frames ...string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			if !slices.ContainsFunc(frames, func(f string) bool { return !strings.Contains(g, f) }) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine reached %q", frames)
		}
	}
}

// TestPrefetcherHeadWaiterSurvivesConsume: a Head waiting on a resident
// speculative GET does not consume it, so a Get may take the entry, and the
// Prefetcher reuse it, while the Head sleeps. The Head must then answer as
// if no GET had been resident — from the backend — not from the entry.
func TestPrefetcherHeadWaiterSurvivesConsume(t *testing.T) {
	backend := &headAnswerFetcher{release: make(chan struct{})}
	p := NewPrefetcher(backend)
	defer p.Close()
	release := sync.OnceFunc(func() { close(backend.release) })
	defer release() // before Close, should the test stop early
	p.Hint(1, "u")  // in flight until released
	heads, gets := make(chan Response, 1), make(chan Response, 1)
	go func() {
		resp, _ := p.Head("u")
		heads <- resp
	}()
	waitForStack(t, fmt.Sprintf("(*Prefetcher).Head(%p", p), "sync.(*Cond).Wait")
	go func() {
		resp, _ := p.Get("u")
		gets <- resp
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		consumed := p.store["u"] == nil
		p.mu.Unlock()
		if consumed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the Get never consumed the speculative GET")
		}
	}
	release()
	for _, c := range []struct {
		answers chan Response
		want    int
	}{{heads, 204}, {gets, 200}} {
		select {
		case resp := <-c.answers:
			if resp.Status != c.want {
				t.Errorf("answer = %+v, want status %d", resp, c.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no answer with status %d: a waiter hangs on a consumed entry", c.want)
		}
	}
	if st := p.Stats(); st.Hits != 1 || st.HeadHits != 0 {
		t.Errorf("stats = %+v, want the Get's hit and no HEAD hit", st)
	}
}

// TestPrefetcherWorkers: over batches with changing bounds, a launch reuses
// a parked worker and starts one only when none is idle, so the workers
// started never outnumber the peak number of fetches in flight. Close ends
// every worker, and a later Hint launches nothing.
func TestPrefetcherWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	backend := newGatedFetcher()
	p := NewPrefetcher(backend)
	peak, next := 0, 0
	for _, bound := range []int{3, 7, 2, 5, 7, 1, 4} {
		urls := make([]string, bound+2)
		for i := range urls {
			urls[i] = fmt.Sprintf("u%d", next)
			next++
		}
		p.Hint(bound, urls...)
		p.mu.Lock()
		inFlight := p.pending
		p.mu.Unlock()
		if inFlight != bound {
			t.Fatalf("bound %d: %d fetches in flight", bound, inFlight)
		}
		peak = max(peak, inFlight)
		for range bound {
			backend.release <- struct{}{}
		}
		waitIdle(t, p)
		// Every fetch has landed, and a worker parks as its job lands, so
		// every worker started is parked.
		p.mu.Lock()
		workers := len(p.idle)
		p.mu.Unlock()
		if workers > peak {
			t.Errorf("bound %d: %d workers started, the peak in flight is %d", bound, workers, peak)
		}
		for _, u := range urls[:bound] {
			if _, err := p.Get(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	launched := p.Stats().Launched
	p.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the Prefetcher", runtime.NumGoroutine(), before)
		}
	}
	if got := p.Hint(4, "after"); got != 0 || p.Stats().Launched != launched || runtime.NumGoroutine() > before {
		t.Errorf("a Hint after Close settled %d, launched %d more, left %d goroutines (%d before)",
			got, p.Stats().Launched-launched, runtime.NumGoroutine(), before)
	}
}

// staticFetcher answers every request with one fixed response and allocates
// nothing.
type staticFetcher struct{ resp Response }

func (f staticFetcher) Get(string) (Response, error)  { return f.resp, nil }
func (f staticFetcher) Head(string) (Response, error) { return f.resp, nil }

// TestPrefetcherLaunchAllocs: once warm, a launch, its landing and the Get
// that consumes it allocate no goroutine, channel or entry — under one
// object per new URL on average over a backend that allocates nothing (the
// spent set's growth is what remains: 0.01). A goroutine, a channel and an
// entry per launch cost 3.01.
func TestPrefetcherLaunchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	p := NewPrefetcher(staticFetcher{Response{Status: 200, MIME: "text/html", Body: []byte("x")}})
	defer p.Close()
	const warm, runs = 64, 2000
	urls := make([]string, warm+runs)
	for i := range urls {
		urls[i] = fmt.Sprintf("https://s.org/%d", i)
	}
	next := 0
	cycle := func() {
		u := urls[next]
		next++
		if got := p.Hint(1, u); got != 1 {
			t.Fatalf("Hint(%s) = %d, want it launched", u, got)
		}
		if resp, err := p.Get(u); err != nil || resp.Status != 200 {
			t.Fatalf("Get(%s) = %+v, %v", u, resp, err)
		}
	}
	for range warm {
		cycle()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / runs; per >= 1 {
		t.Errorf("a launch-land-consume cycle allocates %.2f objects, want < 1", per)
	}
	if st := p.Stats(); st.Hits != warm+runs || st.Launched != warm+runs {
		t.Errorf("stats = %+v, want every Get a hit", st)
	}
}
