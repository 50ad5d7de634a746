package fetch

import (
	"fmt"
	"reflect"
	"testing"

	"sbcrawl/internal/store"
)

// countFetcher is a deterministic backend that tallies real fetches.
type countFetcher struct {
	gets, heads int
}

func (c *countFetcher) Get(url string) (Response, error) {
	c.gets++
	return Response{URL: url, Status: 200, MIME: "text/html", Body: []byte("body-of-" + url), ContentLength: 8}, nil
}

func (c *countFetcher) Head(url string) (Response, error) {
	c.heads++
	return Response{URL: url, Status: 200, MIME: "text/html"}, nil
}

// TestReplayCountersDiskVsMemory is the one-counter-path gate: an entry
// served from the disk spill must move Hits/Misses/Stored exactly like one
// served from memory.
func TestReplayCountersDiskVsMemory(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// First life: fetch three URLs through a disk-backed database.
	backend := &countFetcher{}
	r := NewReplay(backend)
	r.SetBackend(st)
	for i := 0; i < 3; i++ {
		if _, err := r.Get(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Head("u9"); err != nil {
		t.Fatal(err)
	}
	if h, m, s := r.Hits(), r.Misses(), r.Stored(); h != 0 || m != 4 || s != 3 {
		t.Fatalf("first life: hits=%d misses=%d stored=%d, want 0/4/3", h, m, s)
	}
	if err := r.DiskErr(); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// Second life: a fresh Replay over the same store starts warm, and
	// serving an entry from the store must count exactly like a memory hit.
	backend2 := &countFetcher{}
	r2 := NewReplay(backend2)
	r2.SetBackend(st)
	if s := r2.Stored(); s != 3 {
		t.Fatalf("reloaded Stored = %d, want 3 (disk-resident entries count)", s)
	}
	if resp, err := r2.Get("u0"); err != nil || string(resp.Body) != "body-of-u0" {
		t.Fatalf("disk-served Get = %+v, %v", resp, err)
	}
	if h, m := r2.Hits(), r2.Misses(); h != 1 || m != 0 {
		t.Fatalf("disk hit counted %d/%d, want 1/0", h, m)
	}
	// The same URL again moves the counters the same way (one hit), and
	// Stored counts it once.
	if _, err := r2.Get("u0"); err != nil {
		t.Fatal(err)
	}
	if h, m, s := r2.Hits(), r2.Misses(), r2.Stored(); h != 2 || m != 0 || s != 3 {
		t.Fatalf("second hit: hits=%d misses=%d stored=%d, want 2/0/3", h, m, s)
	}
	// HEAD served from a disk-resident GET counts as a hit, like the
	// memory-resident path always has.
	if resp, err := r2.Head("u1"); err != nil || resp.Body != nil {
		t.Fatalf("Head from stored GET = %+v, %v", resp, err)
	}
	if h, m := r2.Hits(), r2.Misses(); h != 3 || m != 0 {
		t.Fatalf("head-from-get hit: hits=%d misses=%d, want 3/0", h, m)
	}
	// Disk-resident HEAD record serves too.
	if _, err := r2.Head("u9"); err != nil {
		t.Fatal(err)
	}
	if h, m := r2.Hits(), r2.Misses(); h != 4 || m != 0 {
		t.Fatalf("disk head hit: hits=%d misses=%d, want 4/0", h, m)
	}
	// A genuine miss still falls through to the fetcher exactly once.
	if _, err := r2.Get("fresh"); err != nil {
		t.Fatal(err)
	}
	if h, m, s := r2.Hits(), r2.Misses(), r2.Stored(); h != 4 || m != 1 || s != 4 {
		t.Fatalf("fresh miss: hits=%d misses=%d stored=%d, want 4/1/4", h, m, s)
	}
	if backend2.gets != 1 || backend2.heads != 0 {
		t.Fatalf("warm database still fetched: gets=%d heads=%d", backend2.gets, backend2.heads)
	}
}

// TestReplayBackendIsLiveView: nothing is listed at attach, so a record the
// first Replay writes after the second attached is a hit on the second, with
// no backend call, and both count what the backend holds.
func TestReplayBackendIsLiveView(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ns := store.Prefixed(st, "site|r|")
	f1, f2 := &countFetcher{}, &countFetcher{}
	r1, r2 := NewReplay(f1), NewReplay(f2)
	r1.SetBackend(ns)
	r2.SetBackend(ns)
	if _, err := r1.Get("late"); err != nil {
		t.Fatal(err)
	}
	if resp, err := r2.Get("late"); err != nil || string(resp.Body) != "body-of-late" {
		t.Fatalf("Get through the second view = %+v, %v", resp, err)
	}
	if resp, err := r2.Head("late"); err != nil || resp.Body != nil {
		t.Fatalf("Head through the second view = %+v, %v", resp, err)
	}
	if f2.gets != 0 || f2.heads != 0 || r2.Hits() != 2 || r2.Misses() != 0 {
		t.Fatalf("second view: %d GETs, %d HEADs, hits=%d misses=%d; want 0, 0, 2/0", f2.gets, f2.heads, r2.Hits(), r2.Misses())
	}
	if _, err := r2.Get("other"); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Head("head-only"); err != nil { // a HEAD record is not a stored GET
		t.Fatal(err)
	}
	if s1, s2, n := r1.Stored(), r2.Stored(), ns.Count(replayGetPrefix); s1 != 2 || s2 != 2 || n != 2 {
		t.Fatalf("Stored = %d and %d, backend GET records %d; want 2 everywhere", s1, s2, n)
	}
}

// TestReplayAttachAllocsIndependentOfBackendSize: attaching to a backend and
// asking what it holds allocates the same over 10 stored responses as over
// 5,000 — nothing is listed, nothing is indexed.
func TestReplayAttachAllocsIndependentOfBackendSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	attach := func(records int) float64 {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ns := store.Prefixed(st, "site|r|")
		seed := NewReplay(&countFetcher{})
		seed.SetBackend(ns)
		for i := 0; i < records; i++ {
			if _, err := seed.Get(fmt.Sprintf("u%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := seed.Stored(); got != records { // also merges the new keys in
			t.Fatalf("Stored = %d, want %d", got, records)
		}
		return testing.AllocsPerRun(10, func() {
			r := NewReplay(&countFetcher{})
			r.SetBackend(ns)
			if r.Stored() != records {
				t.Fatal("a fresh view counts differently")
			}
		})
	}
	if small, large := attach(10), attach(5000); small != large {
		t.Errorf("attach allocates %v times over 10 stored responses, %v over 5,000", small, large)
	}
}

// failingPuts is a store.Backend whose writes are refused.
type failingPuts struct{ store.Backend }

func (failingPuts) Put(string, []byte) error { return fmt.Errorf("disk full") }

// TestReplayOverBackendRetainsNothing: over a backend the database holds no
// response in memory, whatever mix of misses and hits it served — unless a
// write fails, and then it degrades to memory for exactly those responses.
func TestReplayOverBackendRetainsNothing(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	f := &countFetcher{}
	r := NewReplay(f)
	r.SetBackend(st)
	for _, u := range []string{"a", "b", "a", "b"} { // two misses, two hits
		if _, err := r.Get(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Head("a"); err != nil { // answered by the stored GET
		t.Fatal(err)
	}
	if _, err := r.Head("c"); err != nil { // a miss, recorded as a HEAD
		t.Fatal(err)
	}
	if f.gets != 2 || f.heads != 1 || r.Hits() != 3 || r.Misses() != 3 || r.Stored() != 2 {
		t.Fatalf("%d GETs, %d HEADs, hits=%d misses=%d stored=%d; want 2, 1, 3/3/2", f.gets, f.heads, r.Hits(), r.Misses(), r.Stored())
	}
	if len(r.gets) != 0 || len(r.heads) != 0 {
		t.Fatalf("the database keeps %d GETs and %d HEADs in memory beside its backend, want none", len(r.gets), len(r.heads))
	}

	// A backend that refuses writes: the error is retained, the crawl goes
	// on, and the refused responses are served from — and counted in — memory.
	r.SetBackend(failingPuts{st})
	for _, u := range []string{"d", "d", "a"} {
		if resp, err := r.Get(u); err != nil || string(resp.Body) != "body-of-"+u {
			t.Fatalf("Get(%q) over a failing backend = %+v, %v", u, resp, err)
		}
	}
	if r.DiskErr() == nil {
		t.Fatal("DiskErr is nil after a refused write")
	}
	if f.gets != 3 || len(r.gets) != 1 || r.Stored() != 3 {
		t.Fatalf("%d GETs, %d kept in memory, stored=%d; want 3 (d fetched once), 1, 3", f.gets, len(r.gets), r.Stored())
	}
}

// TestReplayCorruptRecordIsAMiss: a stored record that does not decode is
// re-fetched, and the re-fetch overwrites it.
func TestReplayCorruptRecordIsAMiss(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(replayGetPrefix+"u", []byte("not a response record")); err != nil {
		t.Fatal(err)
	}
	f := &countFetcher{}
	r := NewReplay(f)
	r.SetBackend(st)
	for i := 0; i < 2; i++ {
		if resp, err := r.Get("u"); err != nil || string(resp.Body) != "body-of-u" {
			t.Fatalf("Get = %+v, %v", resp, err)
		}
	}
	if f.gets != 1 || r.Misses() != 1 || r.Hits() != 1 || r.Stored() != 1 {
		t.Fatalf("%d GETs, misses=%d hits=%d stored=%d; want 1, 1/1/1", f.gets, r.Misses(), r.Hits(), r.Stored())
	}
	var resp Response
	if raw, _ := st.AppendValue(nil, replayGetPrefix+"u"); len(raw) == 0 {
		t.Fatal("the corrupt record was not overwritten")
	} else if err := DecodeResponseInto(raw, &resp); err != nil {
		t.Fatalf("the record left behind still does not decode: %v", err)
	}
}

// TestReplayWithoutBackend pins the memory-only behavior: no store attached,
// same counters as ever.
func TestReplayWithoutBackend(t *testing.T) {
	backend := &countFetcher{}
	r := NewReplay(backend)
	r.Get("a")
	r.Get("a")
	r.Head("a")
	if h, m, s := r.Hits(), r.Misses(), r.Stored(); h != 2 || m != 1 || s != 1 {
		t.Fatalf("hits=%d misses=%d stored=%d, want 2/1/1", h, m, s)
	}
	if backend.gets != 1 || backend.heads != 0 {
		t.Fatalf("backend traffic gets=%d heads=%d, want 1/0", backend.gets, backend.heads)
	}
}

// TestReplayResponseRoundTrip guards the durable encoding: every Response
// field survives the spill, Interrupted downloads included.
func TestReplayResponseRoundTrip(t *testing.T) {
	orig := Response{
		URL: "https://x/y", Status: 302, MIME: "video/mp4",
		Location: "https://x/z", Body: nil, ContentLength: 12345, Interrupted: true,
	}
	var got Response
	if err := DecodeResponseInto(AppendResponse(nil, &orig), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip changed the response: %+v vs %+v", got, orig)
	}
}
