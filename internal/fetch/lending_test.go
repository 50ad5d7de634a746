package fetch

// Tests for the replay database's lending contract (see Replay and
// Recycler): a disk hit's body is lent out of a pooled buffer, comes back
// through Recycle, and is never overwritten while it is held.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sbcrawl/internal/store"
)

// bodyOf is url's body in these tests: n bytes of the URL repeated, so bodies
// of different URLs differ at every offset.
func bodyOf(url string, n int) []byte {
	return bytes.Repeat([]byte(url), n/len(url)+1)[:n]
}

// sizedFetcher is a deterministic backend serving bodyOf(url, n).
type sizedFetcher struct{ n int }

func (f sizedFetcher) Get(url string) (Response, error) {
	return Response{URL: url, Status: 200, MIME: "text/html", Body: bodyOf(url, f.n)}, nil
}

func (f sizedFetcher) Head(url string) (Response, error) {
	return Response{URL: url, Status: 200, MIME: "text/html"}, nil
}

// warmReplay writes each URL's response to a fresh store namespace and
// returns a new Replay over it, for which every GET of those URLs is a disk
// hit. The backend it falls through to on a miss serves the same bodies.
func warmReplay(t *testing.T, n int, urls ...string) *Replay {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ns := store.Prefixed(st, "site|r|")
	seed := NewReplay(sizedFetcher{n})
	seed.SetBackend(ns)
	for _, u := range urls {
		if _, err := seed.Get(u); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReplay(sizedFetcher{n})
	r.SetBackend(ns)
	return r
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestReplayLentHitAllocs: a GET hit whose body is handed back reads into the
// buffer the previous hit returned, under a key the store joins in its own
// scratch, so it costs the copy of its MIME type alone, nothing the size of
// the record — the same at 1 KB and 64 KB. A HEAD answered by a stored GET
// costs no more.
func TestReplayLentHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	const a, b = "https://s.org/a", "https://s.org/b"
	for _, size := range []int{1 << 10, 64 << 10} {
		r := warmReplay(t, size, a, b)
		hit := func() {
			resp, err := r.Get(a)
			if err != nil || len(resp.Body) != size {
				t.Fatalf("Get = %d-byte body, %v; want %d bytes", len(resp.Body), err, size)
			}
			r.Recycle(resp.Body)
		}
		if allocs, perHit := testing.AllocsPerRun(100, hit), bytesPerRun(100, hit); allocs > 1 || perHit >= 256 {
			t.Errorf("%d-byte body: a GET hit plus Recycle allocates %v times, %d bytes; want the MIME copy alone and < 256", size, allocs, perHit)
		}
		head := func() {
			if resp, err := r.Head(b); err != nil || resp.Status != 200 || resp.Body != nil {
				t.Fatalf("Head = %+v, %v", resp, err)
			}
		}
		if perHead := bytesPerRun(100, head); perHead >= 256 {
			t.Errorf("%d-byte body: a HEAD answered by the stored GET allocates %d bytes, want < 256", size, perHead)
		}
		if h, m := r.Hits(), r.Misses(); m != 0 || h == 0 {
			t.Fatalf("hits=%d misses=%d: the measured lookups were not all disk hits", h, m)
		}
	}
}

// TestReplayHeldBodyIsNeverOverwritten: while a lent body is held, later GETs
// and HEADs — and Recycle calls with any other slice, including a copy of it
// and a view into it — neither reuse its buffer nor end the loan; handing it
// back does, and the next hit is lent from it.
func TestReplayHeldBodyIsNeverOverwritten(t *testing.T) {
	const a, b, c = "https://s.org/a", "https://s.org/b", "https://s.org/c"
	r := warmReplay(t, 512, a, b, c)
	held, err := r.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(held.Body)
	if !bytes.Equal(want, bodyOf(a, 512)) || r.lentAt != &held.Body[0] {
		t.Fatalf("first hit: body intact %v, lent %v", bytes.Equal(want, bodyOf(a, 512)), r.lentAt == &held.Body[0])
	}
	for range 20 {
		for _, u := range []string{b, c} {
			resp, err := r.Get(u)
			if err != nil || !bytes.Equal(resp.Body, bodyOf(u, 512)) {
				t.Fatalf("Get(%s) while a body is held: %v, body intact %v", u, err, bytes.Equal(resp.Body, bodyOf(u, 512)))
			}
			r.Recycle(resp.Body) // an owned copy: not on loan
			if _, err := r.Head(u); err != nil {
				t.Fatal(err)
			}
		}
		r.Recycle(want)           // equal bytes, other memory
		r.Recycle(held.Body[1:])  // the lent buffer, not the lent body
		r.Recycle([]byte("junk")) // foreign
	}
	if !bytes.Equal(held.Body, want) {
		t.Fatal("a held body was overwritten by later lookups")
	}
	if r.lentAt != &held.Body[0] {
		t.Fatal("the loan ended without the lent body being handed back")
	}
	r.Recycle(held.Body)
	if r.lent != nil || r.lentAt != nil {
		t.Fatal("handing the lent body back did not end the loan")
	}
	next, err := r.Get(b)
	if err != nil || !bytes.Equal(next.Body, bodyOf(b, 512)) || r.lentAt != &next.Body[0] {
		t.Fatalf("the hit after a hand-back: %v, body intact %v, lent %v", err, bytes.Equal(next.Body, bodyOf(b, 512)), r.lentAt == &next.Body[0])
	}
}

// TestReplayRecycleIgnoresUnlentBodies: bodies the database did not lend —
// one served from memory after a refused write (the DiskErr path), one the
// backend answered on a miss — are ignored by Recycle, so the body on loan
// stays intact across later disk hits.
func TestReplayRecycleIgnoresUnlentBodies(t *testing.T) {
	const disk, disk2 = "https://s.org/disk", "https://s.org/disk2"
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, u := range []string{disk, disk2} {
		resp, _ := sizedFetcher{512}.Get(u)
		if err := st.Put(replayGetPrefix+u, AppendResponse(nil, &resp)); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReplay(&countFetcher{})
	r.SetBackend(failingPuts{st})
	held, err := r.Get(disk)
	if err != nil || r.lentAt != &held.Body[0] {
		t.Fatalf("disk hit: %v, lent %v", err, r.lentAt == &held.Body[0])
	}
	for range 2 { // a backend miss, then the memory copy its refused write left
		resp, err := r.Get("mem")
		if err != nil || string(resp.Body) != "body-of-mem" {
			t.Fatalf("Get(mem) = %q, %v", resp.Body, err)
		}
		r.Recycle(resp.Body)
		if r.lentAt != &held.Body[0] {
			t.Fatal("Recycle of a body that was never lent ended the loan")
		}
	}
	if r.DiskErr() == nil || r.Hits() != 2 || r.Misses() != 1 {
		t.Fatalf("DiskErr %v, hits=%d misses=%d; want a refused write, 2/1", r.DiskErr(), r.Hits(), r.Misses())
	}
	if resp, err := r.Get(disk2); err != nil || !bytes.Equal(resp.Body, bodyOf(disk2, 512)) {
		t.Fatalf("Get(disk2) = %v, body intact %v", err, bytes.Equal(resp.Body, bodyOf(disk2, 512)))
	}
	if !bytes.Equal(held.Body, bodyOf(disk, 512)) {
		t.Fatal("the lent body was overwritten after Recycle calls with unlent bodies")
	}
}

// TestReplayHeadLendsNothing: a HEAD answered by a stored GET record, or by a
// stored HEAD record, has no body and leaves nothing on loan.
func TestReplayHeadLendsNothing(t *testing.T) {
	const a = "https://s.org/a"
	r := warmReplay(t, 512, a)
	if _, err := r.Head("https://s.org/h"); err != nil { // a miss, recorded as a HEAD
		t.Fatal(err)
	}
	for _, u := range []string{a, "https://s.org/h"} {
		resp, err := r.Head(u)
		if err != nil || resp.Status != 200 || resp.Body != nil {
			t.Fatalf("Head(%s) = %+v, %v", u, resp, err)
		}
		if r.lent != nil {
			t.Fatalf("Head(%s) left a buffer on loan", u)
		}
	}
	if h, m := r.Hits(), r.Misses(); h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", h, m)
	}
}

// TestReplayLendingUnderPrefetcher: speculative GETs run on the window's
// goroutines while two demand loops — one through the Prefetcher, one on the
// Replay directly — check every body and hand it back. Each holder recycles
// only what it holds, so no body changes under its reader; run under -race
// to have the detector watch the pooled buffers.
func TestReplayLendingUnderPrefetcher(t *testing.T) {
	const size = 2 << 10
	urls := make([]string, 40)
	for i := range urls {
		urls[i] = fmt.Sprintf("https://s.org/p/%02d", i)
	}
	r := warmReplay(t, size, urls...)
	p := NewPrefetcher(r, nil)
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	demand := func(f Fetcher, hint bool) {
		defer wg.Done()
		for i, u := range urls {
			if hint {
				p.Hint(4, urls[i+1:min(i+5, len(urls))]...)
			}
			resp, err := f.Get(u)
			if err != nil || !bytes.Equal(resp.Body, bodyOf(u, size)) {
				errs <- fmt.Errorf("Get(%s): %v, body intact %v", u, err, bytes.Equal(resp.Body, bodyOf(u, size)))
				return
			}
			r.Recycle(resp.Body)
		}
	}
	wg.Add(2)
	go demand(p, true)
	go demand(r, false)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
