package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"sbcrawl/internal/dom"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/frontier"
)

// scriptedFetcher serves canned responses for engine edge-case tests.
type scriptedFetcher struct {
	responses map[string]fetch.Response
	errs      map[string]error
	gets      []string
}

func (f *scriptedFetcher) Get(url string) (fetch.Response, error) {
	f.gets = append(f.gets, url)
	if err, ok := f.errs[url]; ok {
		return fetch.Response{}, err
	}
	if r, ok := f.responses[url]; ok {
		return r, nil
	}
	return fetch.Response{URL: url, Status: 404}, nil
}

func (f *scriptedFetcher) Head(url string) (fetch.Response, error) {
	r, err := f.Get(url)
	r.Body = nil
	return r, err
}

func htmlResp(url, body string) fetch.Response {
	return fetch.Response{
		URL: url, Status: 200, MIME: "text/html; charset=utf-8",
		Body: []byte(body), ContentLength: len(body),
	}
}

func newScriptedEngine(t *testing.T, f *scriptedFetcher) *engine {
	t.Helper()
	eng, err := newEngine(&Env{Root: "https://site.org/", Fetcher: f})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// lendingFetcher is a scriptedFetcher that lends its bodies: each GET body is
// a fresh copy, and Recycle scribbles over the body it is handed, as a reused
// buffer does once the next response is read into it.
type lendingFetcher struct {
	scriptedFetcher
	recycled int
}

func (f *lendingFetcher) Get(url string) (fetch.Response, error) {
	r, err := f.scriptedFetcher.Get(url)
	r.Body = slices.Clone(r.Body)
	return r, err
}

func (f *lendingFetcher) Recycle(body []byte) {
	if len(body) > 0 {
		f.recycled++
	}
	for i := range body {
		body[i] = '#'
	}
}

// keepingShared is a fleet-shared speculation cache that keeps every
// response published into it, as fleet.SpecCache does.
type keepingShared struct {
	mu   sync.Mutex
	resp map[string]fetch.Response
}

func (s *keepingShared) Lookup(u string) (fetch.Response, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.resp[u]
	return r, ok
}

func (s *keepingShared) Contains(u string) bool {
	_, ok := s.Lookup(u)
	return ok
}

func (s *keepingShared) Publish(u string, r fetch.Response) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resp[u] = r
}

// TestFetchPageRecyclesEachHopAfterUse: an engine hands every hop's body back
// to a lending fetcher once the page is processed — a redirect, an HTML page
// whose links must come out intact, a target — sequential or under a
// speculation window, whose consumed entries keep no body; and a pipelined
// engine sharing a fleet speculation cache, which keeps the bodies published
// into it, hands back none.
func TestFetchPageRecyclesEachHopAfterUse(t *testing.T) {
	scripted := scriptedFetcher{responses: map[string]fetch.Response{
		"https://site.org/a":     {URL: "https://site.org/a", Status: 301, Location: "/b", Body: []byte("moved")},
		"https://site.org/b":     htmlResp("https://site.org/b", `<ul><li><a href="/x">x</a></li><li><a href="/y.csv">y</a></li></ul>`),
		"https://site.org/t.csv": {URL: "https://site.org/t.csv", Status: 200, MIME: "text/csv", Body: []byte("1,2")},
	}}
	for _, c := range []struct {
		prefetch int
		shared   bool
		want     int
	}{
		{0, false, 3}, // the redirect, the HTML page, the target
		{4, false, 3},
		{4, true, 0},
	} {
		prefetch := c.prefetch
		f := &lendingFetcher{scriptedFetcher: scripted}
		env := &Env{Root: "https://site.org/", Fetcher: f, Prefetch: prefetch}
		if c.shared {
			env.SharedSpec = &keepingShared{resp: map[string]fetch.Response{}}
		}
		eng, err := newEngine(env)
		if err != nil {
			t.Fatal(err)
		}
		// Under a window the redirect and the target are answered from
		// speculated entries, one in flight at a time, as the scripted
		// fetcher is not safe for concurrent use.
		hint := func(u string) {
			if eng.prefetcher != nil {
				eng.prefetcher.Hint(1, u)
			}
		}
		hint("https://site.org/a")
		pg := eng.fetchPage("https://site.org/a")
		var got []string
		for _, l := range pg.Links {
			got = append(got, l.URL)
		}
		if want := []string{"https://site.org/x", "https://site.org/y.csv"}; !pg.IsHTML || !slices.Equal(got, want) {
			t.Fatalf("prefetch %d: page %+v with links %q, want HTML with %q", prefetch, pg, got, want)
		}
		hint("https://site.org/t.csv")
		if tp := eng.fetchPage("https://site.org/t.csv"); !tp.IsTarget {
			t.Fatalf("prefetch %d: target page %+v", prefetch, tp)
		}
		eng.close()
		if st := eng.specStats; prefetch != 0 && st.Hits != 2 {
			t.Fatalf("prefetch %d: %d speculative hits, want 2", prefetch, st.Hits)
		}
		if f.recycled != c.want {
			t.Errorf("prefetch %d, shared cache %v: %d bodies handed back, want %d", prefetch, c.shared, f.recycled, c.want)
		}
	}
}

func TestFetchPageFollowsRedirectChain(t *testing.T) {
	f := &scriptedFetcher{responses: map[string]fetch.Response{
		"https://site.org/a": {URL: "https://site.org/a", Status: 301, Location: "/b"},
		"https://site.org/b": {URL: "https://site.org/b", Status: 302, Location: "/c"},
		"https://site.org/c": htmlResp("https://site.org/c", `<a href="/d">x</a>`),
	}}
	eng := newScriptedEngine(t, f)
	pg := eng.fetchPage("https://site.org/a")
	if !pg.IsHTML || pg.FinalURL != "https://site.org/c" {
		t.Fatalf("chain result: %+v", pg)
	}
	if len(f.gets) != 3 {
		t.Errorf("each redirect hop must be charged: %d GETs", len(f.gets))
	}
	if len(pg.Links) != 1 || pg.Links[0].URL != "https://site.org/d" {
		t.Errorf("links = %+v", pg.Links)
	}
}

func TestFetchPageBreaksRedirectLoops(t *testing.T) {
	f := &scriptedFetcher{responses: map[string]fetch.Response{
		"https://site.org/a": {URL: "https://site.org/a", Status: 301, Location: "/b"},
		"https://site.org/b": {URL: "https://site.org/b", Status: 301, Location: "/a"},
	}}
	eng := newScriptedEngine(t, f)
	pg := eng.fetchPage("https://site.org/a")
	if pg.IsHTML || pg.IsTarget {
		t.Errorf("loop must resolve to nothing: %+v", pg)
	}
	if len(f.gets) > 3 {
		t.Errorf("loop burned %d requests; the seen-set must cut it", len(f.gets))
	}
}

func TestFetchPageDropsOutOfScopeRedirect(t *testing.T) {
	f := &scriptedFetcher{responses: map[string]fetch.Response{
		"https://site.org/a": {URL: "https://site.org/a", Status: 301, Location: "https://elsewhere.com/x"},
	}}
	eng := newScriptedEngine(t, f)
	pg := eng.fetchPage("https://site.org/a")
	if len(f.gets) != 1 {
		t.Errorf("out-of-scope redirect must not be followed: %d GETs", len(f.gets))
	}
	if pg.Status != 301 {
		t.Errorf("status = %d", pg.Status)
	}
}

func TestFetchPageNetworkErrorBecomes5xx(t *testing.T) {
	f := &scriptedFetcher{errs: map[string]error{
		"https://site.org/a": errors.New("connection reset"),
	}}
	eng := newScriptedEngine(t, f)
	pg := eng.fetchPage("https://site.org/a")
	if pg.Status != 599 || pg.IsHTML || pg.IsTarget {
		t.Errorf("network failure result: %+v", pg)
	}
	if eng.meter.Requests != 1 {
		t.Error("the failed attempt must still be charged")
	}
}

// TestFetchPageErrorTaxonomy pins the synthetic status per error class
// (satellite of ISSUE 9): transient faults charge 503, policy refusals 451,
// and anything unclassified keeps the historical 599 — a plain errors.New
// (ClassUnknown) stays wire-compatible with pre-taxonomy traces, which
// TestFetchPageNetworkErrorBecomes5xx above pins separately.
func TestFetchPageErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"transient", syscall.ECONNRESET, 503},
		{"policy", fetch.ErrRobotsDisallowed, 451},
		{"permanent", context.Canceled, 599},
		{"unknown", errors.New("mystery"), 599},
	}
	for _, c := range cases {
		f := &scriptedFetcher{errs: map[string]error{"https://site.org/a": c.err}}
		eng := newScriptedEngine(t, f)
		pg := eng.fetchPage("https://site.org/a")
		if pg.Status != c.want || pg.IsHTML || pg.IsTarget {
			t.Errorf("%s: page = %+v, want synthetic status %d", c.name, pg, c.want)
		}
		if eng.meter.Requests != 1 {
			t.Errorf("%s: failed attempt must be charged exactly once", c.name)
		}
	}
}

// TestEngineRetriesTransientFaults wires the retry policy into a scripted
// engine: a URL that 503s twice and then serves HTML must come back as the
// recovered page, with the fault activity surfaced in Result.Faults.
func TestEngineRetriesTransientFaults(t *testing.T) {
	f := &flakyScriptedFetcher{
		failN: 2,
		fail:  fetch.Response{Status: 503, RetryAfter: 1},
		good:  htmlResp("https://site.org/a", `<a href="/b">x</a>`),
	}
	pol := fetch.DefaultRetryPolicy()
	eng, err := newEngine(&Env{Root: "https://site.org/", Fetcher: f, Retry: &pol})
	if err != nil {
		t.Fatal(err)
	}
	pg := eng.fetchPage("https://site.org/a")
	if !pg.IsHTML || pg.Status != 200 {
		t.Fatalf("retried page = %+v, want the recovered HTML", pg)
	}
	if eng.meter.Requests != 1 {
		t.Errorf("retries charged %d requests, want 1 (attempts are free, the outcome is charged)", eng.meter.Requests)
	}
	res := eng.result("test", 1)
	if res.Faults == nil || res.Faults.Retries != 2 || res.Faults.RetrySuccesses != 1 {
		t.Errorf("Result.Faults = %+v, want 2 retries and 1 recovery", res.Faults)
	}
}

// flakyScriptedFetcher fails each URL's first failN attempts with fail,
// then serves good.
type flakyScriptedFetcher struct {
	failN    int
	fail     fetch.Response
	good     fetch.Response
	attempts map[string]int
}

func (f *flakyScriptedFetcher) Get(url string) (fetch.Response, error) {
	if f.attempts == nil {
		f.attempts = make(map[string]int)
	}
	f.attempts[url]++
	if f.attempts[url] <= f.failN {
		r := f.fail
		r.URL = url
		return r, nil
	}
	r := f.good
	r.URL = url
	return r, nil
}

func (f *flakyScriptedFetcher) Head(url string) (fetch.Response, error) {
	r, err := f.Get(url)
	r.Body = nil
	return r, err
}

func TestFetchPageCountsTarget(t *testing.T) {
	f := &scriptedFetcher{responses: map[string]fetch.Response{
		"https://site.org/f.csv": {
			URL: "https://site.org/f.csv", Status: 200, MIME: "text/csv",
			Body: []byte("a,b\n1,2\n"), ContentLength: 8,
		},
	}}
	eng := newScriptedEngine(t, f)
	pg := eng.fetchPage("https://site.org/f.csv")
	if !pg.IsTarget {
		t.Fatalf("CSV must be a target: %+v", pg)
	}
	if eng.tcount != 1 || len(eng.targets) != 1 {
		t.Errorf("target accounting: tcount=%d targets=%v", eng.tcount, eng.targets)
	}
	// The trace point must carry the updated target count.
	if got := eng.trace.Targets[eng.trace.Len()-1]; got != 1 {
		t.Errorf("trace shows %d targets at the fetching request", got)
	}
}

func TestFetchPageInterruptedDownload(t *testing.T) {
	f := &scriptedFetcher{responses: map[string]fetch.Response{
		"https://site.org/v.bin": {
			URL: "https://site.org/v.bin", Status: 200, MIME: "video/mp4",
			Interrupted: true,
		},
	}}
	eng := newScriptedEngine(t, f)
	pg := eng.fetchPage("https://site.org/v.bin")
	if pg.IsHTML || pg.IsTarget {
		t.Errorf("interrupted download must yield nothing: %+v", pg)
	}
}

func TestExtractNewLinksFilters(t *testing.T) {
	f := &scriptedFetcher{}
	eng := newScriptedEngine(t, f)
	eng.seen["https://site.org/dup"] = true
	body := strings.Join([]string{
		`<a href="/fresh.html">in</a>`,
		`<a href="/dup">seen</a>`,
		`<a href="https://other.org/out">external</a>`,
		`<a href="/photo.jpg">media</a>`,
		`<a href="/fresh.html">same-page duplicate</a>`,
		`<a href="mailto:x@y.z">mail</a>`,
	}, "\n")
	links := eng.extractNewLinks("https://site.org/page", []byte(body))
	if len(links) != 1 || links[0].URL != "https://site.org/fresh.html" {
		t.Errorf("filtered links = %+v", links)
	}
}

func TestBudgetTruncationStopsFetching(t *testing.T) {
	f := &scriptedFetcher{responses: map[string]fetch.Response{
		"https://site.org/": htmlResp("https://site.org/", ""),
	}}
	env := &Env{Root: "https://site.org/", Fetcher: f, MaxRequests: 1}
	eng, err := newEngine(env)
	if err != nil {
		t.Fatal(err)
	}
	if pg := eng.fetchPage("https://site.org/"); pg.Truncated {
		t.Fatal("first request is within budget")
	}
	if pg := eng.fetchPage("https://site.org/x"); !pg.Truncated {
		t.Fatal("second request must be refused")
	}
	if len(f.gets) != 1 {
		t.Errorf("fetcher saw %d requests, budget was 1", len(f.gets))
	}
}

func TestTraceVolumeSplit(t *testing.T) {
	f := &scriptedFetcher{responses: map[string]fetch.Response{
		"https://site.org/p": htmlResp("https://site.org/p", strings.Repeat("x", 1000)),
		"https://site.org/t.csv": {
			URL: "https://site.org/t.csv", Status: 200, MIME: "text/csv",
			Body: []byte(strings.Repeat("y", 500)),
		},
	}}
	eng := newScriptedEngine(t, f)
	eng.fetchPage("https://site.org/p")
	eng.fetchPage("https://site.org/t.csv")
	if eng.nonTargetBytes < 1000 {
		t.Errorf("non-target bytes %d must include the HTML page", eng.nonTargetBytes)
	}
	if eng.targetBytes < 500 {
		t.Errorf("target bytes %d must include the CSV", eng.targetBytes)
	}
	if eng.targetBytes > eng.nonTargetBytes {
		t.Error("1000B page vs 500B file: split looks inverted")
	}
}

func TestCancelledContextStopsFetching(t *testing.T) {
	f := &scriptedFetcher{responses: map[string]fetch.Response{
		"https://site.org/": htmlResp("https://site.org/",
			`<a href="/a">a</a><a href="/b">b</a>`),
	}}
	ctx, cancel := context.WithCancel(context.Background())
	eng, err := newEngine(&Env{Root: "https://site.org/", Fetcher: f, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if pg := eng.fetchPage("https://site.org/"); pg.Truncated {
		t.Fatal("live context must not truncate")
	}
	cancel()
	if pg := eng.fetchPage("https://site.org/a"); !pg.Truncated {
		t.Error("cancelled context must truncate like budget exhaustion")
	}
	if len(f.gets) != 1 {
		t.Errorf("issued %d requests after cancel, want 1 total", len(f.gets))
	}
	if eng.budgetLeft() {
		t.Error("budgetLeft must report false after cancellation")
	}
}

// countingSink tallies checkpoints and keeps the last one.
type countingSink struct {
	n    int
	last Checkpoint
}

func (s *countingSink) Checkpoint(cp Checkpoint) { s.n++; s.last = cp }

// TestCheckpointAllocsIndependentOfFrontier: a checkpoint is the engine's
// counters, so taking one at every request costs the same with 10 URLs
// queued as with 10,000 — nothing walks, copies or encodes the frontier.
func TestCheckpointAllocsIndependentOfFrontier(t *testing.T) {
	const budget = 8
	crawlBytes := func(queued int) uint64 {
		urls := make([]string, queued)
		for i := range urls {
			urls[i] = "https://site.org/p/" + strconv.Itoa(i)
		}
		sink := &countingSink{}
		// Every URL answers 404: no page is parsed and nothing is pushed, so
		// the frontier only shrinks and the crawls differ in its size alone.
		eng, err := newEngine(&Env{
			Root: "https://site.org/", Fetcher: &scriptedFetcher{},
			MaxRequests: budget, Checkpoint: sink, CheckpointEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := &simpleRun{eng: eng, f: &frontier.Queue{}}
		for _, u := range urls {
			r.f.Push(u)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.runStaged(r)
		runtime.ReadMemStats(&after)
		if sink.n != budget || sink.last.Requests != budget || sink.last.Frontier != nil {
			t.Fatalf("%d checkpoints, last %+v; want %d, the last at request %d with no frontier", sink.n, sink.last, budget, budget)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := crawlBytes(10), crawlBytes(10000)
	if large > small+1024 {
		t.Errorf("checkpointing allocates with the frontier: %d bytes over %d requests with 10,000 URLs queued, %d with 10", large, budget, small)
	}
}

// TestNestedFetchKeepsParentLinks: a page's link view survives a nested
// fetchPage — SB fetching a predicted target that turns out to be HTML while
// the parent is being ingested — and the pop back to the mark, both when the
// nested page's links fit the stack's spare capacity and when appending them
// reallocates the stack.
func TestNestedFetchKeepsParentLinks(t *testing.T) {
	var child strings.Builder
	for i := range 200 {
		fmt.Fprintf(&child, `<li><a href="/c/%d">c%d</a></li>`, i, i)
	}
	f := &scriptedFetcher{responses: map[string]fetch.Response{
		"https://site.org/p":     htmlResp("https://site.org/p", `<ul><li><a href="/x">x</a></li><li><a href="/y">y</a></li></ul><p><a href="/z">z</a></p>`),
		"https://site.org/child": htmlResp("https://site.org/child", child.String()),
	}}
	for _, spare := range []int{1024, 0} {
		eng := newScriptedEngine(t, f)
		eng.links = make([]dom.Link, 0, spare)
		parent := eng.fetchPage("https://site.org/p")
		if len(parent.Links) != 3 || cap(parent.Links) != len(parent.Links) {
			t.Fatalf("spare %d: parent view len %d cap %d, want 3 links capped", spare, len(parent.Links), cap(parent.Links))
		}
		want := slices.Clone(parent.Links)
		mark := len(eng.links)
		nested := eng.fetchPage("https://site.org/child")
		if len(nested.Links) != 200 {
			t.Fatalf("spare %d: nested page has %d links, want 200", spare, len(nested.Links))
		}
		if moved := &eng.links[:1][0] != &parent.Links[0]; moved != (spare == 0) {
			t.Fatalf("spare %d: stack reallocated %v", spare, moved)
		}
		eng.popLinks(mark)
		if !reflect.DeepEqual(parent.Links, want) {
			t.Errorf("spare %d: parent links after the nested fetch and pop %+v, want %+v", spare, parent.Links, want)
		}
		if len(eng.links) != mark {
			t.Errorf("spare %d: stack height %d after the pop, want %d", spare, len(eng.links), mark)
		}
	}
}

// linkPage renders k plain links under a list, with filler paragraphs of
// prose and markup between them when wordy, so a page's text and markup vary
// while its links stay the same.
func linkPage(k int, wordy bool) []byte {
	var page strings.Builder
	page.WriteString(`<html><body><div id="main" class="content wide"><ul class="files">`)
	for i := range k {
		if wordy {
			page.WriteString(`<p class="intro">` + strings.Repeat("A sentence of <b>running</b> prose &amp; more, ", 20) + `</p>`)
		}
		fmt.Fprintf(&page, `<li class="row"><a class="dl" href="/d/%d.csv">download d%d</a> %s</li>`, i, i, strings.Repeat("context ", 10))
	}
	page.WriteString(`</ul></div></body></html>`)
	return []byte(page.String())
}

// warmAllocsPerPage is testing.AllocsPerRun of fn over the parsers dom's free
// list holds. Sequential extractions rotate through the parked parsers (up to
// eight, parked by earlier tests), so every one is warmed on the page first,
// and the run count is one that every free-list length from one to eight
// divides.
func warmAllocsPerPage(fn func()) float64 {
	for range 24 {
		fn()
	}
	const runs = 840 // a multiple of 1, 2, …, 8
	return testing.AllocsPerRun(runs, fn)
}

// TestExtractKnownLinksAllocsNothing: once warm, a page whose links are all in
// T ∪ F costs extractNewLinks nothing. Each link is normalized into the
// engine's scratch and dropped on a lookup that builds no string, before dom
// builds anything else of it.
func TestExtractKnownLinksAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	const pageURL = "https://site.org/page"
	body := linkPage(30, true)
	eng := newScriptedEngine(t, &scriptedFetcher{})
	links := eng.extractNewLinks(pageURL, body)
	if len(links) != 30 {
		t.Fatalf("%d links survive the filters, want 30", len(links))
	}
	for _, l := range links {
		eng.seen[l.URL] = true
	}
	eng.popLinks(0)
	if n := warmAllocsPerPage(func() {
		if got := eng.extractNewLinks(pageURL, body); len(got) != 0 {
			t.Fatalf("%d known links survive the filters", len(got))
		}
	}); n != 0 {
		t.Errorf("a page of known links costs extractNewLinks %v allocations, want 0", n)
	}
}

// TestExtractUnseenKnownLinksAllocsNothing: a page of hrefs no parser has
// seen, all already in T ∪ F, costs extractNewLinks nothing either. Each
// href reaches admit as a view of the page and is dropped there, so no
// intern table ever meets it.
func TestExtractUnseenKnownLinksAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	const pageURL, k = "https://site.org/page", 30
	eng := newScriptedEngine(t, &scriptedFetcher{})
	pages := make([][]byte, 24+1+840) // warmAllocsPerPage's calls of fn
	for i := range pages {
		var page strings.Builder
		page.WriteString(`<html><body><div id="main" class="content wide"><ul class="files">`)
		for j := range k {
			fmt.Fprintf(&page, `<li class="row"><a class="dl" href="/d/%d-%d.csv">download</a></li>`, i, j)
			eng.seen[fmt.Sprintf("https://site.org/d/%d-%d.csv", i, j)] = true
		}
		page.WriteString(`</ul></div></body></html>`)
		pages[i] = []byte(page.String())
	}
	i := 0
	if n := warmAllocsPerPage(func() {
		if got := eng.extractNewLinks(pageURL, pages[i]); len(got) != 0 {
			t.Fatalf("%d known links survive the filters", len(got))
		}
		i++
	}); n != 0 {
		t.Errorf("a page of %d unseen known links costs extractNewLinks %v allocations, want 0", k, n)
	}
}

// TestExtractNewLinksAllocsTheirURLs: a page of k new links, with no field
// asked for, costs its k URL strings and a constant, whatever its text and
// markup.
func TestExtractNewLinksAllocsTheirURLs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	const k, slack = 30, 2
	for _, wordy := range []bool{false, true} {
		body := linkPage(k, wordy)
		eng := newScriptedEngine(t, &scriptedFetcher{})
		eng.fields = 0
		n := warmAllocsPerPage(func() {
			if got := eng.extractNewLinks("https://site.org/page", body); len(got) != k {
				t.Fatalf("%d links survive the filters, want %d", len(got), k)
			}
			eng.popLinks(0)
		})
		if n < k || n > k+slack {
			t.Errorf("wordy=%v: a page of %d new links costs %v allocations, want %d to %d", wordy, k, n, k, k+slack)
		}
	}
}
