package webserver

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"sbcrawl/internal/sitegen"
)

// classSize is the size of body class c: bodyClassMin·2^(c/8)·(1 + (c%8)/8).
func classSize(c int) int {
	return (bodyClassMin / bodyClassSteps << (c / bodyClassSteps)) * (bodyClassSteps + c%bodyClassSteps)
}

// drainBodies empties the body free list, so that the next GET finds no
// buffer parked by an earlier test.
func drainBodies() {
	for _, l := range bodyFree {
		for len(l) > 0 {
			<-l
		}
	}
	parkedBodyBytes.Store(0)
}

// bodySink keeps a measured allocation on the heap.
var bodySink []byte

// leastBytes is the least of three runs' allocated bytes: TotalAlloc also
// counts the odd allocation of another goroutine, which only ever adds.
func leastBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestBodyClasses holds floorClass to a scan of the class sizes: the largest
// class at most n, the top one past 512 KB, none under 256 B.
func TestBodyClasses(t *testing.T) {
	if classSize(0) != bodyClassMin || classSize(bodyClasses-1) != 512<<10 {
		t.Fatalf("classes run %d to %d bytes, want 256 B to 512 KB", classSize(0), classSize(bodyClasses-1))
	}
	floor := -1
	for n := 1; n <= 600<<10; n++ {
		for floor+1 < bodyClasses && classSize(floor+1) <= n {
			floor++
		}
		if got := floorClass(n); got != floor {
			t.Fatalf("floorClass(%d) = %d, want %d", n, got, floor)
		}
	}
}

// lendingBackend is a server that lends its GET bodies.
type lendingBackend interface {
	Get(url string) Response
	Recycle(body []byte)
}

// TestLentBodyAllocs: once warm, a GET whose body is handed back allocates
// nothing — an HTML page copied out of the renderer's scratch, a target
// rendered into the buffer, a federated HTML page rewritten into it, a
// federated target.
func TestLentBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	site := testSites(t, []string{"ju"}, 0.02, 3)[0]
	fed := NewFederation("federation.test", testSites(t, []string{"cn", "cl", "ce"}, 0.005, 7))
	// pick finds a page of kind; an HTML page whose body fits the
	// renderer's parked scratch (see TestHeadIsGetMinusBody), as a page
	// hinted larger allocates a scratch of its own whatever its body.
	pick := func(site *sitegen.Site, kind sitegen.PageKind) *sitegen.Page {
		for _, pg := range site.Pages() {
			if pg.Kind == kind && (kind != sitegen.KindHTML || len(site.RenderPage(pg)) <= 8<<10) {
				return pg
			}
		}
		t.Fatalf("no page of kind %d", kind)
		return nil
	}
	m := fed.members[0]
	for _, c := range []struct {
		name string
		b    lendingBackend
		url  string
	}{
		{"HTML", New(site), pick(site, sitegen.KindHTML).URL},
		{"target", New(site), pick(site, sitegen.KindTarget).URL},
		{"federated HTML", fed, m.translateOut(pick(m.site, sitegen.KindHTML).URL)},
		{"federated target", fed, m.translateOut(pick(m.site, sitegen.KindTarget).URL)},
	} {
		lend := func() {
			resp := c.b.Get(c.url)
			if resp.Status != 200 || len(resp.Body) == 0 {
				t.Fatalf("%s: GET %s = %d with %d bytes", c.name, c.url, resp.Status, len(resp.Body))
			}
			c.b.Recycle(resp.Body)
		}
		if n := testing.AllocsPerRun(20, lend); n != 0 {
			t.Errorf("%s: a warm GET plus Recycle allocates %v times, want 0", c.name, n)
		}
	}
}

// TestUnreturnedBodyAllocs: with no buffer parked, as for a GET whose body
// never comes back, a GET allocates one object, its body, and no byte more
// than an exact-size body would, for every HTML page and target of a site.
func TestUnreturnedBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	site := testSites(t, []string{"cl"}, 0.005, 3)[0]
	s := New(site)
	drainBodies()
	checked := 0
	for _, pg := range site.Pages() {
		if pg.Kind != sitegen.KindHTML && pg.Kind != sitegen.KindTarget {
			continue
		}
		n := len(site.RenderPage(pg))
		if allocs := testing.AllocsPerRun(5, func() { s.Get(pg.URL) }); allocs != 1 {
			t.Fatalf("GET %s allocates %v times, want 1 (the body)", pg.URL, allocs)
		}
		get := leastBytes(func() { s.Get(pg.URL) })
		if exact := leastBytes(func() { bodySink = make([]byte, 0, n) }); get > exact {
			t.Fatalf("GET %s allocates %d bytes, an exact-size %d-byte body %d", pg.URL, get, n, exact)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no page checked")
	}
}

// TestTargetKeepsLentCapacity: a target rendered into a parked buffer larger
// than it stops at its SizeB, with the bytes RenderPage gives, and goes back
// at the buffer's full capacity, so the buffer parks again in its own class.
func TestTargetKeepsLentCapacity(t *testing.T) {
	site := testSites(t, []string{"ju"}, 0.02, 3)[0]
	s := New(site)
	var pg *sitegen.Page
	for _, p := range site.Pages() {
		if p.Kind == sitegen.KindTarget && p.SizeB > bodyClassMin && p.SizeB < 256<<10 {
			pg = p
			break
		}
	}
	if pg == nil {
		t.Fatal("no target between 256 B and 256 KB")
	}
	drainBodies()
	size := classSize(floorClass(pg.SizeB) + 4) // a class within an octave above the target's
	s.Recycle(make([]byte, size))
	resp := s.Get(pg.URL)
	if !bytes.Equal(resp.Body, site.RenderPage(pg)) || resp.ContentLength != pg.SizeB {
		t.Fatalf("target of %d bytes: GET gives %d bytes (ContentLength %d), not its render", pg.SizeB, len(resp.Body), resp.ContentLength)
	}
	if cap(resp.Body) != size {
		t.Fatalf("target of %d bytes in a %d-byte buffer: body cap %d, want the buffer's", pg.SizeB, size, cap(resp.Body))
	}
	s.Recycle(resp.Body)
	if c := floorClass(size); len(bodyFree[c]) != 1 || parkedBodyBytes.Load() != int64(size) {
		t.Fatalf("after the hand-back: %d buffers in class %d, %d bytes parked; want the %d-byte buffer", len(bodyFree[c]), c, parkedBodyBytes.Load(), size)
	}
	drainBodies()
}

// TestParkedBodiesStayUnderBound: handed-back buffers park until their bytes
// reach maxParkedBodyBytes, or their class's list is full, and the rest are
// dropped; a buffer under the smallest class never parks.
func TestParkedBodiesStayUnderBound(t *testing.T) {
	drainBodies()
	defer drainBodies()
	recycleBody(make([]byte, bodyClassMin-1))
	if parkedBodyBytes.Load() != 0 {
		t.Fatalf("a %d-byte buffer parked", bodyClassMin-1)
	}
	for range 4 * maxParkedBodyBytes / (16 << 10) {
		for _, n := range []int{16 << 10, 20 << 10} {
			recycleBody(make([]byte, n))
		}
	}
	parked := 0
	for _, l := range bodyFree {
		for i := range len(l) {
			b := <-l
			parked += cap(b)
			if len(b) != 0 {
				t.Fatalf("buffer %d of a class parked with %d bytes in it", i, len(b))
			}
			l <- b
		}
	}
	if got := parkedBodyBytes.Load(); int64(parked) != got || got > maxParkedBodyBytes || got < maxParkedBodyBytes-(20<<10) {
		t.Fatalf("%d bytes parked, %d counted; want them equal, within %d and short of it by less than a buffer", parked, got, maxParkedBodyBytes)
	}
}

// TestPortalIsNeverParked: the federation portal body, which every request
// for the portal shares, is not parked when handed back, nor overwritten.
func TestPortalIsNeverParked(t *testing.T) {
	f := NewFederation("federation.test", testSites(t, []string{"ce", "ce", "ce", "ce"}, 0.0005, 1))
	drainBodies()
	portal := f.Get(f.Root()).Body
	if len(portal) < bodyClassMin {
		t.Fatalf("portal of %d bytes: under the smallest class, it would never park anyway", len(portal))
	}
	want := bytes.Clone(portal)
	f.Recycle(portal)
	if n := parkedBodyBytes.Load(); n != 0 {
		t.Fatalf("handing the portal back parked %d bytes", n)
	}
	if got := f.Get(f.Root()).Body; !bytes.Equal(got, want) {
		t.Fatal("handing the portal back changed it")
	}
}
