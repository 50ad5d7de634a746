package core

import (
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"sbcrawl/internal/classify"
	"sbcrawl/internal/dom"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/freelist"
	"sbcrawl/internal/frontier"
	"sbcrawl/internal/hnsw"
	"sbcrawl/internal/learn"
	"sbcrawl/internal/sitegen"
	"sbcrawl/internal/textvec"
	"sbcrawl/internal/webserver"
)

// newTestEnv generates a site and builds a crawl Env over the simulated
// fetcher, with all oracles wired up.
func newTestEnv(t testing.TB, code string, scale float64, seed int64) (*Env, *sitegen.Site) {
	p, ok := sitegen.ProfileByCode(code)
	if !ok {
		t.Fatalf("unknown profile %s", code)
	}
	site := sitegen.Generate(sitegen.Config{Profile: p, Scale: scale, Seed: seed})
	server := webserver.New(site)
	env := &Env{
		Root:    site.Root(),
		Fetcher: fetch.NewSim(server),
		OracleClass: func(u string) int {
			pg, ok := site.Lookup(u)
			if !ok {
				return classify.ClassNeither
			}
			switch pg.Kind {
			case sitegen.KindHTML:
				return classify.ClassHTML
			case sitegen.KindTarget:
				return classify.ClassTarget
			default:
				return classify.ClassNeither
			}
		},
		OracleBenefit: func(u string) int {
			pg, ok := site.Lookup(u)
			if !ok {
				return 0
			}
			return len(pg.DatasetLinks)
		},
		OracleTargets: site.TargetURLs(),
	}
	return env, site
}

// requestsTo recovers from a trace the number of requests needed to reach
// the given target count, or -1 if never reached.
func requestsTo(tr *Trace, targets int) int {
	for i, v := range tr.Targets {
		if int(v) >= targets {
			return i + 1
		}
	}
	return -1
}

func allCrawlers(seed int64) []Crawler {
	return []Crawler{
		NewSB(SBConfig{Seed: seed}),
		NewSB(SBConfig{Oracle: true, Seed: seed}),
		NewBFS(),
		NewDFS(),
		NewRandom(seed),
		NewOmniscient(),
		NewFocused(25),
		NewTPOff(30, seed),
		NewTRES(5000),
	}
}

func TestAllCrawlersCompleteSmallSite(t *testing.T) {
	env, site := newTestEnv(t, "cl", 0.01, 5)
	total := len(site.TargetURLs())
	for _, c := range allCrawlers(1) {
		res, err := c.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if res.Requests == 0 {
			t.Errorf("%s: no requests issued", c.Name())
		}
		if res.Trace.Len() != res.Requests {
			t.Errorf("%s: trace %d points for %d requests", c.Name(), res.Trace.Len(), res.Requests)
		}
		// Exhaustive strategies must find every target on an unbounded
		// budget; TRES is allowed to stop early by design.
		if c.Name() != "TRES" && len(res.Targets) != total {
			t.Errorf("%s: found %d/%d targets on full crawl", c.Name(), len(res.Targets), total)
		}
	}
}

func TestTraceMonotonicity(t *testing.T) {
	env, _ := newTestEnv(t, "cn", 0.01, 7)
	res, err := NewSB(SBConfig{Seed: 3}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	for i := 1; i < tr.Len(); i++ {
		if tr.Targets[i] < tr.Targets[i-1] {
			t.Fatal("target count must be non-decreasing")
		}
		if tr.TargetBytes[i] < tr.TargetBytes[i-1] || tr.NonTargetBytes[i] < tr.NonTargetBytes[i-1] {
			t.Fatal("byte counters must be non-decreasing")
		}
	}
}

func TestNoURLFetchedTwice(t *testing.T) {
	// Efficiency invariant of Sec. 3.1: a crawler never GETs a page twice.
	// The replay cache sees every request; its miss count equals distinct
	// URLs touched, so hits reveal duplicates. (HEAD-after-GET hits are
	// fine; SB-ORACLE issues no HEADs.)
	p, _ := sitegen.ProfileByCode("cn")
	site := sitegen.Generate(sitegen.Config{Profile: p, Scale: 0.01, Seed: 9})
	server := webserver.New(site)
	replay := fetch.NewReplay(fetch.NewSim(server))
	env := &Env{
		Root:    site.Root(),
		Fetcher: replay,
		OracleClass: func(u string) int {
			pg, ok := site.Lookup(u)
			if !ok {
				return classify.ClassNeither
			}
			switch pg.Kind {
			case sitegen.KindHTML:
				return classify.ClassHTML
			case sitegen.KindTarget:
				return classify.ClassTarget
			}
			return classify.ClassNeither
		},
	}
	res, err := NewSB(SBConfig{Oracle: true, Seed: 4}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Hits() != 0 {
		t.Errorf("%d duplicate fetches detected (replay hits)", replay.Hits())
	}
	if res.Requests != replay.Misses() {
		t.Errorf("requests %d != distinct fetches %d", res.Requests, replay.Misses())
	}
}

func TestBudgetRespected(t *testing.T) {
	env, _ := newTestEnv(t, "be", 0.02, 11)
	env.MaxRequests = 37
	for _, c := range allCrawlers(2) {
		res, err := c.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if res.Requests > env.MaxRequests {
			t.Errorf("%s: %d requests exceed budget %d", c.Name(), res.Requests, env.MaxRequests)
		}
	}
	env.MaxRequests = 0 // reset for other tests sharing the env
}

func TestSBOracleBeatsBlindBaselinesOnHubSite(t *testing.T) {
	// The headline claim: on a structured site, the SB crawler reaches 90%
	// of targets with fewer requests than BFS, DFS, and RANDOM.
	env, site := newTestEnv(t, "nc", 0.005, 13)
	total := len(site.TargetURLs())
	want90 := (total*9 + 9) / 10

	run := func(c Crawler) int {
		res, err := c.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		r := requestsTo(res.Trace, want90)
		if r < 0 {
			t.Fatalf("%s never reached 90%% of targets", c.Name())
		}
		return r
	}
	sb := run(NewSB(SBConfig{Oracle: true, Seed: 21}))
	bfs := run(NewBFS())
	dfs := run(NewDFS())
	rnd := run(NewRandom(21))
	if sb >= bfs || sb >= rnd {
		t.Errorf("SB-ORACLE (%d req) must beat BFS (%d) and RANDOM (%d) to 90%%", sb, bfs, rnd)
	}
	_ = dfs // DFS can occasionally get lucky (cl in the paper); not asserted
}

func TestSBClassifierTracksOracle(t *testing.T) {
	env, site := newTestEnv(t, "nc", 0.005, 17)
	total := len(site.TargetURLs())
	want90 := (total*9 + 9) / 10
	oracleRes, err := NewSB(SBConfig{Oracle: true, Seed: 8}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	clsRes, err := NewSB(SBConfig{Seed: 8}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	or := requestsTo(oracleRes.Trace, want90)
	cr := requestsTo(clsRes.Trace, want90)
	if or < 0 || cr < 0 {
		t.Fatal("both SB variants must reach 90%")
	}
	// The classifier pays HEADs and errors; it may trail the oracle but not
	// by more than ~2.5× on this structured site (paper: "close to the
	// (virtual) perfect oracle").
	if float64(cr) > 2.5*float64(or) {
		t.Errorf("SB-CLASSIFIER (%d) too far behind SB-ORACLE (%d)", cr, or)
	}
	if clsRes.Confusion == nil {
		t.Error("SB-CLASSIFIER must report a confusion matrix")
	}
	if oracleRes.Confusion != nil {
		t.Error("SB-ORACLE has no classifier to confuse")
	}
}

func TestSBDeterministicPerSeed(t *testing.T) {
	run := func() *Result {
		env, _ := newTestEnv(t, "cn", 0.01, 19)
		res, err := NewSB(SBConfig{Oracle: true, Seed: 33}).Run(env)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Requests != b.Requests || len(a.Targets) != len(b.Targets) {
		t.Fatalf("same-seed runs differ: %d/%d reqs, %d/%d targets",
			a.Requests, b.Requests, len(a.Targets), len(b.Targets))
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatal("target retrieval order diverged between identical runs")
		}
	}
}

// TestSBCrawlReusesClassifierTablesAlloc: an SB crawl releases its
// classifier's weight table, batch arena, scratch, example slots and pending
// map, its HNSW level generator and node slab, its tag-path vocabulary, its
// frontier's generator source and action table, and its engine's tables
// (T ∪ F, the in-page set, the link stack) when it ends, so of two identical
// budgeted crawls back to back the second takes them all from the free lists
// instead of allocating ~190 KB of its own (~70 KB of it the weight table,
// ~60 KB the maps, slots and stack, ~16 KB the node slab and action table).
func TestSBCrawlReusesClassifierTablesAlloc(t *testing.T) {
	if raceEnabled {
		// Under the race detector the same crawl's allocation varies by
		// tens of KB from run to run, as much as the table looked for here.
		t.Skip("allocation budgets only hold in normal builds")
	}
	crawlBytes := func() uint64 {
		env, _ := newTestEnv(t, "ed", 0.005, 3)
		env.MaxRequests = 80
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := NewSB(SBConfig{Seed: 5}).Run(env)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Confusion == nil || res.Confusion.Total() == 0 {
			t.Fatal("the crawl never left the classifier's HEAD phase")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	crawlBytes() // lazy package state: warm parsers, interned strings
	// Empty the eight free lists, each of which holds at most 8: a fresh
	// model takes one parked table on its first fit, and a classifier, an
	// HNSW index, a grouped frontier, a tag-path vectorizer and an engine
	// take a parked arena (with its scratch, slots and pending map),
	// generator and node slab, source and action table, vocabulary and
	// engine tables when they are built.
	for range 8 {
		learn.NewLogisticRegression().PartialFit([]learn.Example{{X: textvec.MakeSparse(2).AppendCharBigrams("ab", 0), Y: learn.ClassTarget}})
		classify.NewOnline(classify.Config{})
		hnsw.New(hnsw.DefaultConfig())
		frontier.NewGrouped(0)
		textvec.NewTagPathVectorizer(2, 12, 15)
		takeTables()
	}
	first, second := crawlBytes(), crawlBytes()
	if first < second+170<<10 {
		t.Errorf("first crawl allocated %d bytes, the second %d: want the second ≥ 170 KB less", first, second)
	}
	// The two generators are too small to show in that margin: the crawl just
	// run parked both, so building an index and a frontier allocates neither
	// (a math/rand source is ~4.9 KB).
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hnsw.New(hnsw.DefaultConfig())
	frontier.NewGrouped(0)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 4<<10 {
		t.Errorf("an index and a frontier built after an SB crawl allocate %d bytes: a generator was not parked", b)
	}
}

// TestFocusedParksItsModel: a finished FOCUSED crawl parks its model's weight
// table on learn's free list — exactly one, which the next model's first fit
// takes without allocating and fits exactly as a new table — and the next
// FOCUSED crawl, which takes it, returns exactly the Result of one run with
// the list empty.
func TestFocusedParksItsModel(t *testing.T) {
	probe := []learn.Example{{X: focusedFeatures("http://x/a", "b", 2), Y: learn.ClassTarget}}
	const tableBytes = (depthFeatureID + 1) * 8 // a FOCUSED table covers the depth slot
	run := func() *Result {
		env, _ := newTestEnv(t, "ed", 0.005, 3)
		env.MaxRequests = 60 // past one fit at the default retrainEvery
		res, err := NewFocused(0).Run(env)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fit := func() (*learn.LogisticRegression, uint64) {
		m := learn.NewLogisticRegression()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.PartialFit(probe)
		runtime.ReadMemStats(&after)
		return m, after.TotalAlloc - before.TotalAlloc
	}
	for range freelist.Cap { // empty the list: each model's first fit takes a table
		fit()
	}
	want := run()
	if got := run(); !reflect.DeepEqual(got, want) {
		t.Fatal("a FOCUSED crawl on a parked table differs from one with the list empty")
	}
	parked, warm := fit()
	fresh, cold := fit()
	// The race build does not fuse grow's append(w, make(...)...), so there
	// every fit allocates a table-sized operand, parked table or not.
	if !raceEnabled && warm >= tableBytes/4 {
		t.Errorf("the first fit after a FOCUSED crawl allocated %d bytes: no table was parked", warm)
	}
	if !raceEnabled && cold < tableBytes {
		t.Errorf("the second fit allocated %d bytes, want a new %d-byte table: more than one was parked", cold, tableBytes)
	}
	all := textvec.MakeSparse(depthFeatureID + 1)
	for id := range depthFeatureID + 1 {
		all = all.Append(id, 1)
	}
	if a, b := parked.Score(all), fresh.Score(all); a != b {
		t.Errorf("a model fit on the parked table scores %v, one fit on a new table %v", a, b)
	}
}

// TestSBCrawlReleaseConcurrent: SB, TP-OFF, BFS and FOCUSED crawls run and
// release from several goroutines at once, every crawl taking and parking
// tables, arenas and generators on the shared free lists (every strategy
// parks its engine's), and each returns exactly the Result it returns alone.
func TestSBCrawlReleaseConcurrent(t *testing.T) {
	crawlers := func() []Crawler {
		return []Crawler{NewSB(SBConfig{Seed: 5}), NewSB(SBConfig{Seed: 6, Model: "NB"}), NewTPOff(10, 5), NewBFS(), NewFocused(0)}
	}
	run := func(c Crawler) *Result {
		env, _ := newTestEnv(t, "ed", 0.005, 3)
		env.MaxRequests = 60
		res, err := c.Run(env)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	var want []*Result
	for _, c := range crawlers() {
		want = append(want, run(c))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				for i, c := range crawlers() {
					if got := run(c); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d, round %d: %s differs from its solo run", g, round, c.Name())
					}
				}
			}
		}()
	}
	wg.Wait()
}

// drainTables empties the engine-table free list.
func drainTables() {
	for len(tablesFree) > 0 {
		<-tablesFree
	}
}

// TestParkedEngineTablesAreEmpty: a finished crawl parks its engine's tables
// holding nothing of it — no in-page key, no link in any slot of the stack,
// no scratch byte — and the next engine takes them. (That T ∪ F starts
// empty, TestSteadyState's crawls show.)
func TestParkedEngineTablesAreEmpty(t *testing.T) {
	defer drainTables()
	drainTables()
	env, _ := newTestEnv(t, "ed", 0.005, 3)
	env.MaxRequests = 60
	if _, err := NewBFS().Run(env); err != nil {
		t.Fatal(err)
	}
	if len(tablesFree) != 1 {
		t.Fatalf("%d engine tables parked, want 1", len(tablesFree))
	}
	tb := <-tablesFree
	if tb.seen == nil || len(tb.inPage) != 0 || len(tb.abs) != 0 {
		t.Fatalf("parked T ∪ F %v, in-page set %d, scratch %d bytes: want T ∪ F parked, the rest empty", tb.seen != nil, len(tb.inPage), len(tb.abs))
	}
	if cap(tb.links) == 0 || len(tb.links) != 0 {
		t.Fatalf("parked link stack len %d cap %d: want an empty stack with room", len(tb.links), cap(tb.links))
	}
	for i, l := range tb.links[:cap(tb.links)] {
		if !reflect.DeepEqual(l, dom.Link{}) {
			t.Fatalf("parked link slot %d holds %+v", i, l)
		}
	}
	tablesFree <- tb
	eng, err := newEngine(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tablesFree) != 0 || cap(eng.links) != cap(tb.links) {
		t.Fatal("newEngine did not take the parked tables")
	}
}

// TestOutsizedEngineTablesAreNotParked: a crawl whose T ∪ F outgrew
// maxParkedSeen parks nothing, and one whose link stack outgrew
// maxParkedLinks parks its other tables without it: a cleared map keeps its
// buckets, and a free list never lets go.
func TestOutsizedEngineTablesAreNotParked(t *testing.T) {
	defer drainTables()
	env, _ := newTestEnv(t, "ed", 0.005, 3)
	for _, tc := range []struct {
		name      string
		seen      int
		links     int
		wantLinks bool // false: nothing parked at all
	}{
		{"seen", maxParkedSeen + 1, 0, false},
		{"links", maxParkedSeen, maxParkedLinks + 1, true},
	} {
		drainTables()
		eng, err := newEngine(env)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.seen {
			eng.seen[strconv.Itoa(i)] = true
		}
		eng.links = make([]dom.Link, 0, tc.links)
		eng.result("X", 0)
		switch {
		case !tc.wantLinks && len(tablesFree) != 0:
			t.Errorf("%s: a T ∪ F of %d entries was parked", tc.name, tc.seen)
		case tc.wantLinks && len(tablesFree) != 1:
			t.Errorf("%s: %d engine tables parked, want 1", tc.name, len(tablesFree))
		case tc.wantLinks && (<-tablesFree).links != nil:
			t.Errorf("%s: a link stack of %d slots was parked", tc.name, tc.links)
		}
	}
}

func TestActionStatsExposeRewardStructure(t *testing.T) {
	// wo concentrates its targets in few hubs (2.4% of pages), giving the
	// skewed reward distribution of Figure 5 / Table 6.
	env, _ := newTestEnv(t, "wo", 0.003, 23)
	res, err := NewSB(SBConfig{Oracle: true, Seed: 5}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Actions) < 3 {
		t.Fatalf("only %d actions formed; tag-path clustering is too coarse", len(res.Actions))
	}
	var best, sum float64
	nonzero := 0
	for _, a := range res.Actions {
		if a.MeanReward > best {
			best = a.MeanReward
		}
		if a.MeanReward > 0 {
			sum += a.MeanReward
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("no action earned any reward")
	}
	mean := sum / float64(nonzero)
	if best < 2*mean {
		t.Errorf("top group reward %.2f should far exceed the mean %.2f (Fig. 5 shape)", best, mean)
	}
}

func TestOmniscientIsNearPerfect(t *testing.T) {
	env, site := newTestEnv(t, "cl", 0.01, 27)
	res, err := NewOmniscient().Run(env)
	if err != nil {
		t.Fatal(err)
	}
	total := len(site.TargetURLs())
	if len(res.Targets) != total {
		t.Fatalf("omniscient found %d/%d", len(res.Targets), total)
	}
	// One request per target (no redirects among targets in this seed).
	if res.Requests > total+total/10+1 {
		t.Errorf("omniscient used %d requests for %d targets", res.Requests, total)
	}
}

func TestEarlyStoppingFiresOnExhaustedSite(t *testing.T) {
	env, site := newTestEnv(t, "ok", 0.002, 29) // ok: very sparse targets
	st := site.ComputeStats()
	cfg := EarlyStopConfig{Nu: 10, Epsilon: 0.2, Gamma: 0.5, Kappa: 3}
	res, err := NewSB(SBConfig{Oracle: true, Seed: 2, EarlyStop: &cfg}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewSB(SBConfig{Oracle: true, Seed: 2}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped {
		t.Fatalf("early stopping never fired on a sparse site (%d avail, %d targets)",
			st.Available, st.Targets)
	}
	if res.Requests >= full.Requests {
		t.Errorf("early stop saved nothing: %d vs %d requests", res.Requests, full.Requests)
	}
}

func TestTRESStopsOnFrontierGrowth(t *testing.T) {
	env, site := newTestEnv(t, "nc", 0.005, 31)
	res, err := NewTRES(20).Run(env) // tiny limit = the 1-min rule bites
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) >= len(site.TargetURLs()) {
		t.Error("TRES with a tight compute limit must not complete a large site")
	}
}

func TestTRESRequiresOracle(t *testing.T) {
	env, _ := newTestEnv(t, "cl", 0.01, 37)
	env.OracleClass = nil
	res, err := NewTRES(100).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 0 {
		t.Error("TRES without its oracle must refuse to crawl")
	}
}

func TestFocusedLearnsToPrioritize(t *testing.T) {
	env, site := newTestEnv(t, "be", 0.01, 41)
	total := len(site.TargetURLs())
	want90 := (total*9 + 9) / 10
	res, err := NewFocused(20).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if got := requestsTo(res.Trace, want90); got < 0 {
		t.Error("FOCUSED must eventually reach 90% on an unbounded crawl")
	}
}

func TestTPOffUsesWarmupGroups(t *testing.T) {
	env, site := newTestEnv(t, "nc", 0.005, 43)
	res, err := NewTPOff(40, 7).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) == 0 {
		t.Error("TP-OFF found no targets at all")
	}
	_ = site
}

func TestRewardAblationRawVsNovelty(t *testing.T) {
	env, _ := newTestEnv(t, "cn", 0.01, 47)
	raw, err := NewSB(SBConfig{Oracle: true, Seed: 6, RawReward: true}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	nov, err := NewSB(SBConfig{Oracle: true, Seed: 6}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	// Both complete the site; the ablation exists to compare efficiency.
	if len(raw.Targets) != len(nov.Targets) {
		t.Errorf("ablation changed total recall: %d vs %d", len(raw.Targets), len(nov.Targets))
	}
}

func TestBadRootRejected(t *testing.T) {
	env := &Env{Root: "not-a-url"}
	for _, c := range allCrawlers(1) {
		if _, err := c.Run(env); err == nil {
			t.Errorf("%s: bad root must error", c.Name())
		}
	}
}
