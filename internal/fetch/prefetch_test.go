package fetch

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// prog is a FuzzPrefetcher program under construction (see FuzzPrefetcher
// for the encoding). solo, withShared and warmShared start one on the given
// number of lanes, without a shared store, with an empty one, and with one
// holding every fourth URL from 3.
type prog []byte

func solo(lanes int) prog       { return prog{byte(lanes - 1)} }
func withShared(lanes int) prog { return prog{byte(lanes-1) | 4} }
func warmShared(lanes int) prog { return prog{byte(lanes-1) | 12} }

func (p prog) op(c, a byte, items ...byte) prog { return append(append(p, c, a), items...) }

func (p prog) hint(bound int, urls ...byte) prog {
	return p.op(opHint|byte(bound-1)<<3, byte(len(urls)), urls...)
}

func (p prog) demands(bound int, ds ...byte) prog {
	return p.op(opDemands|byte(bound-1)<<3, byte(len(ds)), ds...)
}

func (p prog) get(lane int, u byte) prog  { return p.op(opGet|byte(lane)<<3, u) }
func (p prog) head(lane int, u byte) prog { return p.op(opHead|byte(lane)<<3, u) }
func (p prog) landAll() prog              { return p.op(opLandAll, 0) }
func (p prog) closeOn(lane int) prog      { return p.op(opClose|byte(lane)<<3, 0) }

func (p prog) land(keys ...byte) prog {
	for _, k := range keys {
		p = p.op(opLand, k)
	}
	return p
}

// span is the URLs from up to, not including, to.
func span(from, to byte) (urls []byte) {
	for u := from; u < to; u++ {
		urls = append(urls, u)
	}
	return urls
}

// prefetcherRows are FuzzPrefetcher's named seed rows. Each reproduces the
// scenario of the hand-written test it replaced and also runs under that
// test's name. URL 4 is flaky and URL 3 warm in a warm shared store.
var prefetcherRows = map[string]prog{
	"TestPrefetcherServesHintedURL": solo(1).hint(4, 0).land(0).get(0, 0),
	// The second Get misses; the entry the first consumed is reused for URL
	// 1, whose Get waits for its landing.
	"TestPrefetcherConsumeOnce":            solo(1).hint(4, 0).land(0).get(0, 0).get(0, 0).hint(4, 1).get(0, 1).land(1),
	"TestPrefetcherWindowBoundsInFlight":   solo(1).hint(3, span(0, 10)...).closeOn(0).landAll(),
	"TestPrefetcherSetWindow":              solo(1).hint(2, span(0, 16)...).hint(8, span(0, 16)...).landAll(),
	"TestPrefetcherDuplicateHintsCoalesce": solo(1).hint(8, 0, 0, 0).hint(8, 0).landAll(),
	"TestPrefetcherCloseQuiesces":          solo(1).hint(4, 0, 1, 2).closeOn(0).land(0, 1, 2).hint(4, 3),
	// At bound 1, eight landed URLs fill the store; the ninth evicts the
	// oldest, which is never fetched again.
	"TestPrefetcherEvictsOldestWhenStoreFull": func() prog {
		p := solo(1)
		for u := byte(10); u < 18; u++ {
			p = p.hint(1, u).land(u)
		}
		return p.hint(1, 18).land(18).get(0, 18).hint(1, 10)
	}(),
	"TestPrefetcherNeverSpeculatesTwice":                solo(1).hint(4, 0).land(0).get(0, 0).hint(4, 0),
	"TestPrefetcherSpeculativeHeadConsumeOnce":          solo(1).demands(4, 0|fuzzHead).land(0|fuzzHead).head(0, 0).head(0, 0).hint(4, 0).land(0).get(0, 0),
	"TestPrefetcherHeadServedFromResidentGet":           solo(1).hint(4, 0).land(0).head(0, 0).get(0, 0),
	"TestPrefetcherHintScansFullBatch":                  solo(1).hint(1, 0).hint(1, 1, 0, 2).land(0).get(0, 0).hint(1, 1, 2).land(1).hint(1, 2).land(2),
	"TestPrefetcherSharesRefetchAfterFailedSpeculation": withShared(1).hint(4, 4).land(4).get(0, 4).head(0, 4),
	// Sixteen in flight, all but the oldest land: a launch at bound 2 fills
	// the store and must evict URL 1, not URL 0 in flight.
	"TestPrefetcherEvictionAllInFlight": solo(1).hint(16, span(0, 16)...).land(span(1, 16)...).hint(2, 16, 17).get(0, 0).land(0, 16).get(0, 16),
	// Thirty-one consumed entries leave holes in the order queue beside one
	// resident entry.
	"TestPrefetcherCompactionBoundary": func() prog {
		p := solo(1)
		for u := byte(0); u < fuzzURLs; u++ {
			if p = p.hint(1, u).land(u); u != 20 {
				p = p.get(0, u)
			}
		}
		return p
	}(),
	"TestPrefetcherSharedStore": warmShared(1).hint(4, 3).get(0, 3).head(0, 3).hint(4, 0).land(0).get(0, 0).get(0, 1).head(0, 1).head(0, 0),
	"three lanes": func() prog {
		p := withShared(3)
		for i := byte(0); i < 30; i++ {
			p = p.hint(1+int(i%8), i, i+1).demands(4, i|fuzzHead).get(int(i%3), i).head(int(i+1)%3, i).land(i * 7)
		}
		return p
	}(),
	"TestHintDemandsBoundIsTheCallers": solo(1).hint(1, 0).
		demands(8, 1, 2|fuzzHead, 3, 4|fuzzHead, 8, 9|fuzzHead, 10, 11|fuzzHead, 12, 13|fuzzHead, 16, 17|fuzzHead).
		hint(1, 20).landAll().get(0, 1).head(0, 2),
	"TestHintReportsSettledPrefix/tracked_and_spent": solo(1).hint(2, 0, 1).landAll().get(0, 0).hint(8, 0, 1),
	"TestHintReportsSettledPrefix/in-flight_bound":   withShared(1).hint(2, 0).hint(2, 0, 1, 2, 3).landAll(),
	"TestHintReportsSettledPrefix/shared-resident":   warmShared(1).hint(4, 0, 3, 1),
	"TestHintReportsSettledPrefix/store_full": func() prog {
		p := solo(1)
		for u := byte(0); u < 11; u++ {
			p = p.hint(1, u).land(u)
		}
		return p
	}(),
	"TestHintReportsSettledPrefix/HintDemands_bound": withShared(1).hint(1, 0).demands(2, 1, 2|fuzzHead, 3).landAll(),
	// A Head on lane 0 waits on an in-flight speculative GET that a Get on
	// lane 1 consumes; the entry is launched again for the next URL. The Head
	// must answer for its own URL whichever waiter wakes first.
	"TestPrefetcherHeadWaiterSurvivesConsume": func() prog {
		p := solo(2)
		for u := byte(0); u < 20; u += 2 {
			p = p.hint(1, u).head(0, u).get(1, u).land(u).hint(1, u+1).land(u+1).get(1, u+1)
		}
		return p
	}(),
	// Batches under changing bounds, each landed and consumed.
	"TestPrefetcherWorkers": func() prog {
		p, next := solo(1), byte(0)
		for _, bound := range []byte{3, 7, 2, 5, 7, 1, 4} {
			p = p.hint(int(bound), span(next, next+bound+2)...).landAll()
			for u := next; u < next+bound; u++ {
				p = p.get(0, u)
			}
			next += bound
		}
		return p.closeOn(0)
	}(),
}

func TestPrefetcherServesHintedURL(t *testing.T)                     { runPrefetcherRow(t) }
func TestPrefetcherConsumeOnce(t *testing.T)                         { runPrefetcherRow(t) }
func TestPrefetcherWindowBoundsInFlight(t *testing.T)                { runPrefetcherRow(t) }
func TestPrefetcherSetWindow(t *testing.T)                           { runPrefetcherRow(t) }
func TestPrefetcherDuplicateHintsCoalesce(t *testing.T)              { runPrefetcherRow(t) }
func TestPrefetcherCloseQuiesces(t *testing.T)                       { runPrefetcherRow(t) }
func TestPrefetcherEvictsOldestWhenStoreFull(t *testing.T)           { runPrefetcherRow(t) }
func TestPrefetcherNeverSpeculatesTwice(t *testing.T)                { runPrefetcherRow(t) }
func TestPrefetcherSpeculativeHeadConsumeOnce(t *testing.T)          { runPrefetcherRow(t) }
func TestPrefetcherHeadServedFromResidentGet(t *testing.T)           { runPrefetcherRow(t) }
func TestPrefetcherHintScansFullBatch(t *testing.T)                  { runPrefetcherRow(t) }
func TestPrefetcherSharesRefetchAfterFailedSpeculation(t *testing.T) { runPrefetcherRow(t) }
func TestPrefetcherEvictionAllInFlight(t *testing.T)                 { runPrefetcherRow(t) }
func TestPrefetcherCompactionBoundary(t *testing.T)                  { runPrefetcherRow(t) }
func TestPrefetcherSharedStore(t *testing.T)                         { runPrefetcherRow(t) }
func TestHintDemandsBoundIsTheCallers(t *testing.T)                  { runPrefetcherRow(t) }
func TestPrefetcherHeadWaiterSurvivesConsume(t *testing.T)           { runPrefetcherRow(t) }
func TestPrefetcherWorkers(t *testing.T)                             { runPrefetcherRow(t) }

func TestHintReportsSettledPrefix(t *testing.T) {
	for _, name := range []string{"tracked and spent", "in-flight bound", "shared-resident", "store full", "HintDemands bound"} {
		t.Run(name, runPrefetcherRow)
	}
}

// runPrefetcherRow runs the FuzzPrefetcher row named after the test.
func runPrefetcherRow(t *testing.T) {
	row, ok := prefetcherRows[t.Name()]
	if !ok {
		t.Fatalf("no FuzzPrefetcher row %q", t.Name())
	}
	runPrefetcherProgram(t, row)
}

// TestPrefetcherConcurrentAccess runs Hint, HintDemands, Get, Head and Stats
// at once, each on a goroutine of its own, over fuzzBackend with its gate
// open, for the race detector: FuzzPrefetcher runs one op at a time.
func TestPrefetcherConcurrentAccess(t *testing.T) {
	b := newFuzzBackend(true)
	b.open = true
	p := NewPrefetcher(b, b.shared)
	const n = 60
	var wg sync.WaitGroup
	for _, op := range []func(i int, u string){
		func(i int, u string) { p.Hint(1+i%8, u, fuzzURL[(i+1)%fuzzURLs]) },
		func(_ int, u string) { p.HintDemands(4, Demand{URL: u, Head: true}) },
		func(_ int, u string) { resp, err := p.Get(u); b.check(u, false, resp, err) },
		func(_ int, u string) { resp, err := p.Head(u); b.check(u, true, resp, err) },
		func(int, string) { p.Stats() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				op(i, fuzzURL[i%fuzzURLs])
			}
		}()
	}
	wg.Wait()
	p.Close()
	if st := p.Stats(); st.Hits+st.Misses != n || len(b.faults) > 0 {
		t.Errorf("stats %+v after %d Gets, faults %q", st, n, b.faults)
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
	p := NewPrefetcher(staticFetcher{Response{Status: 200, MIME: "text/html", Body: []byte("x")}}, nil)
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
