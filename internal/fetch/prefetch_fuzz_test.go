package fetch

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// FuzzPrefetcher runs a byte-coded program against a Prefetcher over
// fuzzBackend and checks the speculation layer's contract after every step:
//
//   - every answer is the backend's for its URL and verb, and a HEAD answer
//     has no body;
//   - a GET body is on loan when it is answered: none is answered after it
//     was handed back (fuzzBackend poisons it then);
//   - a speculative transient failure is never the demand answer, nor
//     published to the shared store, where every Get's answer is, and no
//     answer is published twice;
//   - a step whose outcome the program fixes leaves the order queue, the
//     entries, the spent keys and the counters fuzzModel predicts (see its
//     methods), and Hint returns the settled prefix it predicts;
//   - no key is fetched speculatively twice;
//   - the workers never outnumber the peak number of fetches in flight, and
//     none is left once Close returns, after which a Hint launches nothing;
//   - Hits + Misses is the number of Gets, Launched the number of
//     speculative fetches.
//
// The first byte picks 1-3 lanes (b%4, 3 meaning 1) and a shared store (bit
// 2; bit 3 warms it with a quarter of the URLs). Each op is an opcode byte c
// and an argument byte a; a byte names URL a%32, with bit 5 for its HEAD:
//
//	c&7 0: Hint, bound 1+c>>3, of the a%32 URLs that follow
//	    1: HintDemands, bound 1+c>>3, of the a%32 demands that follow
//	    2: Get of a on lane c>>3; 3: Head
//	    4, 7: land a's speculative fetch if it is held, else the a-th held
//	       one in key order; 5: land every held fetch
//	    6: Close on lane c>>3
//
// Batches run on the fuzz goroutine; Gets, Heads and Close on their lane,
// which runs its ops in order. After each op the fuzz goroutine waits until
// every other goroutine of the run is blocked, so a program is one
// interleaving but for the order in which a landing's waiters wake: a
// landing that wakes a lane, and an op queued behind a waiting one, are the
// steps no model predicts. The program ends by landing everything, then
// closes the Prefetcher. A run still going after fuzzWatchdog fails with
// every goroutine's stack.
func FuzzPrefetcher(f *testing.F) {
	for _, name := range slices.Sorted(maps.Keys(prefetcherRows)) {
		f.Add([]byte(prefetcherRows[name]))
	}
	f.Fuzz(runPrefetcherProgram)
}

const (
	opHint = iota
	opDemands
	opGet
	opHead
	opLand
	opLandAll
	opClose

	fuzzURLs     = 32
	fuzzHead     = 32 // a demand's or a landed key's bit for the HEAD
	fuzzMaxSteps = 200
	fuzzWatchdog = 5 * time.Second
)

// fuzzURL is the program's URLs, and fuzzIndex their indexes.
var fuzzURL, fuzzIndex = func() (us [fuzzURLs]string, index map[string]int) {
	index = make(map[string]int, fuzzURLs)
	for i := range us {
		us[i] = fmt.Sprintf("https://s.org/%d", i)
		index[us[i]] = i
	}
	return us, index
}()

// fuzzAnswer is the backend's answer to URL i's GET or HEAD. URLs 5, 6 and
// 7 of every eight are a 404, a redirect and a blocked video; the others
// are pages with bodies of differing lengths.
func fuzzAnswer(i int, head bool) Response {
	resp := Response{URL: fuzzURL[i], Status: 200, MIME: "text/html"}
	switch i % 8 {
	case 5:
		resp.Status = 404
	case 6:
		resp.Status, resp.Location = 301, fuzzURL[(i+1)%fuzzURLs]
	case 7:
		resp.MIME, resp.Interrupted = "video/mp4", !head
	}
	if !head && i%8 < 6 {
		resp.Body = bodyOf(resp.URL, 40+13*i)
	}
	return resp
}

// fuzzFlaky reports the URLs whose speculative fetches fail with a 503.
func fuzzFlaky(u string) bool { return fuzzIndex[u]%5 == 4 }

// fuzzKey is the Prefetcher's key for u's GET or HEAD.
func fuzzKey(u string, head bool) string {
	if head {
		return headKey(u)
	}
	return u
}

// fuzzBackend is FuzzPrefetcher's backend: fuzzAnswer, but a speculative
// fetch (one a Prefetcher worker issues) waits at a gate until the program
// lands it, and fails with a 503 on a flaky URL. A GET body is lent from a
// free list and overwritten with 0xAA when Recycle hands it back. Its lock
// also guards the shared store.
type fuzzBackend struct {
	mu      sync.Mutex
	held    []heldFetch      // speculative fetches at the gate
	open    bool             // the program is over: nothing waits
	seen    map[string]bool  // the keys fetched speculatively
	fetched map[string]int   // each URL's GET answers that are not a 503
	loans   map[*byte]bool   // the first byte of every body on loan
	free    [][]byte         // handed-back buffers
	got     map[string]bool  // the URLs a Get has answered
	faults  []string         // violations seen off the fuzz goroutine
	shared  *fuzzSharedStore // nil when the Prefetcher is solo
}

func newFuzzBackend(shared bool) *fuzzBackend {
	b := &fuzzBackend{seen: map[string]bool{}, fetched: map[string]int{}, loans: map[*byte]bool{}, got: map[string]bool{}}
	if shared {
		b.shared = &fuzzSharedStore{b: b, m: map[string]Response{}, published: map[string]int{}}
	}
	return b
}

type heldFetch struct {
	key  string
	land chan struct{}
}

func (b *fuzzBackend) Get(u string) (Response, error)  { return b.fetch(u, false) }
func (b *fuzzBackend) Head(u string) (Response, error) { return b.fetch(u, true) }

func (b *fuzzBackend) fetch(u string, head bool) (Response, error) {
	if fromWorker() {
		h := heldFetch{fuzzKey(u, head), make(chan struct{})}
		b.mu.Lock()
		if b.seen[h.key] {
			b.faultLocked("%q fetched speculatively twice", h.key)
		}
		b.seen[h.key] = true
		if b.open {
			close(h.land)
		} else {
			b.held = append(b.held, h)
		}
		b.mu.Unlock()
		<-h.land
		if fuzzFlaky(u) {
			return Response{URL: u, Status: 503}, nil
		}
	}
	resp := fuzzAnswer(fuzzIndex[u], head)
	b.mu.Lock()
	defer b.mu.Unlock()
	if !head {
		b.fetched[u]++
	}
	if len(resp.Body) > 0 {
		var buf []byte
		if j := slices.IndexFunc(b.free, func(f []byte) bool { return cap(f) >= len(resp.Body) }); j >= 0 {
			buf = b.free[j]
			b.free = slices.Delete(b.free, j, j+1)
		}
		resp.Body = append(buf, resp.Body...)
		b.loans[&resp.Body[0]] = true
	}
	return resp, nil
}

// fromWorker reports whether a Prefetcher worker is the caller.
func fromWorker() bool {
	var pcs [16]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(3, pcs[:])])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "(*Prefetcher).fetch") {
			return true
		}
		if !more {
			return false
		}
	}
}

// Recycle implements Recycler.
func (b *fuzzBackend) Recycle(body []byte) {
	if len(body) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.loans[&body[0]] {
		b.faultLocked("a body not on loan was handed back")
		return
	}
	delete(b.loans, &body[0])
	body = body[:cap(body)]
	for i := range body {
		body[i] = 0xAA
	}
	b.free = append(b.free, body[:0])
}

// check records a fault unless resp is u's answer for the verb.
func (b *fuzzBackend) check(u string, head bool, resp Response, err error) {
	want := fuzzAnswer(fuzzIndex[u], head)
	b.mu.Lock()
	defer b.mu.Unlock()
	lent := len(resp.Body) == 0 || b.loans[&resp.Body[0]]
	meta, wantMeta := resp, want
	meta.Body, wantMeta.Body = nil, nil
	if err != nil || !reflect.DeepEqual(meta, wantMeta) || !bytes.Equal(resp.Body, want.Body) || !lent || head && resp.Body != nil {
		b.faultLocked("%q answered %d %s with %d bytes (on loan %v), %v; want %d %s with %d bytes",
			fuzzKey(u, head), resp.Status, resp.URL, len(resp.Body), lent, err, want.Status, want.URL, len(want.Body))
	}
	if !head {
		b.got[u] = true
	}
}

func (b *fuzzBackend) faultLocked(format string, args ...any) {
	b.faults = append(b.faults, fmt.Sprintf(format, args...))
}

// fuzzSharedStore is a fleet-shared store that keeps the first response
// published for each URL, counts the publishes and records the URLs the
// hint scan probes.
type fuzzSharedStore struct {
	b         *fuzzBackend
	m         map[string]Response
	published map[string]int
	probes    []string
}

func (s *fuzzSharedStore) Lookup(u string) (Response, bool) {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	r, ok := s.m[u]
	return r, ok
}

func (s *fuzzSharedStore) Contains(u string) bool {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	s.probes = append(s.probes, u)
	_, ok := s.m[u]
	return ok
}

func (s *fuzzSharedStore) Publish(u string, r Response) {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	if TransientResult(r, nil) {
		s.b.faultLocked("a %d for %s was published", r.Status, u)
	}
	if s.published[u]++; s.published[u] > s.b.fetched[u] {
		s.b.faultLocked("%s published %d times from %d fetches", u, s.published[u], s.b.fetched[u])
	}
	if _, ok := s.m[u]; !ok {
		s.m[u] = r
	}
}

// fuzzModel is what a step may change in a Prefetcher: its order queue of
// keys in arrival order, with holes where an entry was consumed, whether
// each entry has landed, its spent keys and its counters. Its methods apply
// one step the way the Prefetcher must.
type fuzzModel struct {
	order  []string
	landed map[string]bool
	spent  map[string]bool
	stats  PrefetchStats
}

func (m fuzzModel) String() string {
	landed := slices.DeleteFunc(slices.Clone(m.order), func(k string) bool { return !m.landed[k] })
	return fmt.Sprintf("queue %q (landed %q), spent %q, %+v", m.order, landed, slices.Sorted(maps.Keys(m.spent)), m.stats)
}

// retire consumes an entry, leaving a hole in the queue.
func (m *fuzzModel) retire(key string) {
	delete(m.landed, key)
	m.spent[key] = true
}

// sweep drops the queue's holes and, with evict, its oldest landed entry.
func (m *fuzzModel) sweep(evict bool) {
	m.order = slices.DeleteFunc(m.order, func(k string) bool {
		landed, live := m.landed[k]
		if evict && landed {
			evict = false
			m.stats.Evicted++
			m.retire(k)
			return true
		}
		return !live
	})
}

// batch walks one batch, inFlight fetches already running: past the
// compaction threshold it drops the queue's holes, then launches in order
// what is untracked and not in the shared store until the bound leaves no
// room, a launch into a full store evicting the oldest landed entry. It
// returns Hint's settled prefix, the keys launched and the URLs probed in
// the shared store (contains is nil when there is none).
func (m *fuzzModel) batch(bound, inFlight int, ds []Demand, contains func(string) bool) (settled int, launched, probed []string) {
	if len(m.order) > 2*len(m.landed)+storeCap(bound) {
		m.sweep(false)
	}
	settled = len(ds)
	for i, d := range ds {
		key := fuzzKey(d.URL, d.Head)
		if _, ok := m.landed[d.URL]; d.Head && ok {
			settled = min(settled, i)
			continue
		}
		if _, ok := m.landed[key]; ok || m.spent[key] {
			continue
		}
		if contains != nil {
			if probed = append(probed, d.URL); contains(d.URL) {
				settled = min(settled, i)
				continue
			}
		}
		if inFlight >= bound {
			return min(settled, i), launched, probed
		}
		if len(m.landed) >= storeCap(bound) {
			m.sweep(true)
		}
		m.order = append(m.order, key)
		m.landed[key] = false
		m.stats.Launched++
		inFlight++
		launched = append(launched, key)
	}
	return settled, launched, probed
}

// get is a Get of u, dispatched when shared holds u or not.
func (m *fuzzModel) get(u string, shared bool) {
	switch _, ok := m.landed[u]; {
	case ok:
		m.retire(u)
		m.stats.Hits++
	case shared:
		m.spent[u] = true
		m.stats.Hits++
		m.stats.SharedHits++
	default:
		m.stats.Misses++
	}
}

// head is a Head of u. One that waits counts its hit when it wakes.
func (m *fuzzModel) head(u string, shared bool) {
	landed, ok := m.landed[headKey(u)]
	if ok {
		m.retire(headKey(u))
	} else if landed, ok = m.landed[u]; !ok && shared {
		m.stats.HeadHits++
		m.stats.SharedHits++
	}
	if landed && !fuzzFlaky(u) {
		m.stats.HeadHits++
	}
}

// fuzzRun is one program's run.
type fuzzRun struct {
	t        *testing.T
	p        *Prefetcher
	b        *fuzzBackend
	lanes    []chan func()
	queued   []atomic.Int32 // each lane's ops not yet done
	lanesRun sync.WaitGroup
	gets     atomic.Int64
	closing  atomic.Bool // a lane has called Close
	name     string      // the named row the program is, if it is one
	step     string      // the op being run, for messages
	deadline time.Time
	buf      []byte
	workers0 int // Prefetcher workers alive before the run, of earlier tests
	peak     int // the most fetches held in flight at once
}

func runPrefetcherProgram(t *testing.T, code []byte) {
	if len(code) == 0 {
		return
	}
	r := &fuzzRun{t: t, buf: make([]byte, 64<<10), deadline: time.Now().Add(fuzzWatchdog), step: "start"}
	for name, row := range prefetcherRows {
		if bytes.Equal(row, code) {
			r.name = name + ": "
		}
	}
	r.b = newFuzzBackend(code[0]&4 != 0)
	var shared SharedStore
	if r.b.shared != nil {
		for i := 3; code[0]&8 != 0 && i < fuzzURLs; i += 4 {
			resp, _ := r.b.Get(fuzzURL[i])
			r.b.shared.Publish(fuzzURL[i], resp)
		}
		shared = r.b.shared
	}
	_, r.workers0 = r.scan()
	r.p = NewPrefetcher(r.b, shared)
	r.lanes = make([]chan func(), 1+int(code[0]&3)%3)
	r.queued = make([]atomic.Int32, len(r.lanes))
	for i := range r.lanes {
		r.lanes[i] = make(chan func(), len(code))
		r.lanesRun.Add(1)
		go func() {
			defer r.lanesRun.Done()
			for op := range r.lanes[i] {
				op()
				r.queued[i].Add(-1)
			}
		}()
	}
	ops := code[1:]
	for n := 0; len(ops) >= 2 && n < fuzzMaxSteps; n++ {
		c, a := ops[0], ops[1]
		ops = ops[2:]
		k, u := int(c>>3), fuzzURL[a%fuzzURLs]
		lane := k % len(r.lanes)
		r.step = fmt.Sprintf("op %d (%s %d)", n, [...]string{"Hint", "HintDemands", "Get", "Head", "land", "land all", "Close", "land"}[c&7], a)
		m := r.snapshot()
		// A lane op's effect is fixed when its lane is idle; a landing's
		// when no lane waits to wake.
		certain := r.queued[lane].Load() == 0
		if op := c & 7; op == opLand || op == opLandAll || op == 7 {
			for i := range r.queued {
				certain = certain && r.queued[i].Load() == 0
			}
		}
		switch c & 7 {
		case opHint, opDemands:
			items := ops[:min(int(a%fuzzURLs), len(ops))]
			ops = ops[len(items):]
			r.batch(m, 1+k, c&7 == opHint, items)
			continue
		case opGet:
			m.get(u, r.inShared(u))
			r.onLane(lane, func() {
				resp, err := r.p.Get(u)
				r.gets.Add(1)
				r.b.check(u, false, resp, err)
				if r.b.shared == nil { // a shared store keeps the bodies
					r.b.Recycle(resp.Body)
				}
			})
		case opHead:
			m.head(u, r.inShared(u))
			r.onLane(lane, func() {
				resp, err := r.p.Head(u)
				r.b.check(u, true, resp, err)
			})
		case opLand, 7:
			r.b.mu.Lock()
			if held := len(r.b.held); held > 0 {
				key := fuzzKey(u, a&fuzzHead != 0)
				slices.SortFunc(r.b.held, func(x, y heldFetch) int { return strings.Compare(x.key, y.key) })
				i := slices.IndexFunc(r.b.held, func(h heldFetch) bool { return h.key == key })
				if i < 0 {
					i = int(a) % held
				}
				m.landed[r.b.held[i].key] = true
				close(r.b.held[i].land)
				r.b.held = slices.Delete(r.b.held, i, i+1)
			}
			r.b.mu.Unlock()
		case opLandAll:
			for _, key := range r.landAll() {
				m.landed[key] = true
			}
		case opClose:
			r.onLane(lane, func() {
				r.closing.Store(true)
				r.p.Close()
			})
		}
		r.settle()
		if certain {
			r.expect(m)
		}
	}
	r.finish()
}

func (r *fuzzRun) onLane(lane int, op func()) {
	r.queued[lane].Add(1)
	r.lanes[lane] <- op
}

func (r *fuzzRun) inShared(u string) bool {
	if r.b.shared == nil {
		return false
	}
	_, ok := r.b.shared.Lookup(u)
	return ok
}

// snapshot reads the Prefetcher's state as a fuzzModel.
func (r *fuzzRun) snapshot() fuzzModel {
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	m := fuzzModel{order: slices.Clone(r.p.order), landed: map[string]bool{}, spent: map[string]bool{}, stats: r.p.stats}
	for k, s := range r.p.store {
		m.landed[k] = s.landed
	}
	for k := range r.p.spent {
		m.spent[k] = true
	}
	return m
}

// expect fails unless the Prefetcher's state is want.
func (r *fuzzRun) expect(want fuzzModel) {
	got := r.snapshot()
	if !slices.Equal(got.order, want.order) || !maps.Equal(got.landed, want.landed) || !maps.Equal(got.spent, want.spent) || got.stats != want.stats {
		r.fail("state %v, want %v", got, want)
	}
}

// batch runs one Hint or HintDemands batch of items under bound from the
// state m, and checks it against fuzzModel.batch: what it launched at the
// gate, what it probed, the state it left and Hint's settled prefix.
func (r *fuzzRun) batch(m fuzzModel, bound int, hint bool, items []byte) {
	var urls []string
	var demands []Demand
	for _, a := range items {
		urls = append(urls, fuzzURL[a%fuzzURLs])
		demands = append(demands, Demand{URL: fuzzURL[a%fuzzURLs], Head: a&fuzzHead != 0 && !hint})
	}
	heldKeys := func() map[string]bool {
		r.b.mu.Lock()
		defer r.b.mu.Unlock()
		keys := map[string]bool{}
		for _, h := range r.b.held {
			keys[h.key] = true
		}
		return keys
	}
	before := heldKeys()
	var contains func(string) bool
	if s := r.b.shared; s != nil {
		contains = r.inShared
		s.probes = nil
	}
	settled, launched, probed := 0, []string(nil), []string(nil)
	if !r.closing.Load() {
		settled, launched, probed = m.batch(bound, len(before), demands, contains)
	}
	got := 0
	if hint {
		got = r.p.Hint(bound, urls...)
	} else {
		r.p.HintDemands(bound, demands...)
	}
	r.settle()
	if hint && got != settled {
		r.fail("Hint settled %d of %q, want %d", got, urls, settled)
	}
	want := maps.Clone(before)
	for _, key := range launched {
		want[key] = true
	}
	if after := heldKeys(); !maps.Equal(after, want) {
		r.fail("%q held after launching %q beside %q", slices.Sorted(maps.Keys(after)), launched, slices.Sorted(maps.Keys(before)))
	}
	if s := r.b.shared; s != nil && !slices.Equal(s.probes, probed) {
		r.fail("probed the shared store for %q, want %q", s.probes, probed)
	}
	r.expect(m)
}

// landAll lands every held fetch and returns their keys.
func (r *fuzzRun) landAll() (keys []string) {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	for _, h := range r.b.held {
		close(h.land)
		keys = append(keys, h.key)
	}
	r.b.held = nil
	return keys
}

// settle waits until every goroutine running this package's code but the
// fuzz goroutine is blocked — nothing moves again until it acts — then
// checks the faults recorded since, that the shared store holds every URL a
// Get answered, and the workers' bound.
func (r *fuzzRun) settle() {
	for spins := 0; ; spins++ {
		busy, workers := r.scan()
		if !busy {
			r.b.mu.Lock()
			faults, held := r.b.faults, len(r.b.held)
			for u := range r.b.got {
				if s := r.b.shared; s != nil && s.m[u].URL != u {
					faults = append(faults, u+" was answered but not published")
				}
			}
			r.b.mu.Unlock()
			if len(faults) > 0 {
				r.fail("%s", strings.Join(faults, "; "))
			}
			r.peak = max(r.peak, held)
			if workers-r.workers0 > r.peak {
				r.fail("%d workers, the peak in flight is %d", workers-r.workers0, r.peak)
			}
			return
		}
		r.watchdog()
		if spins < 8 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// scan reports whether a goroutine running this package's code, other than
// the caller, can run, and counts the Prefetcher workers. It matches the
// wait reasons in runtime.Stack's goroutine headers, which are not
// documented; testing/synctest.Wait, stable from Go 1.25, does this job.
func (r *fuzzRun) scan() (busy bool, workers int) {
	for _, g := range strings.Split(r.stacks(), "\n\n")[1:] { // the caller's comes first
		if !strings.Contains(g, "sbcrawl/internal/fetch.") {
			continue
		}
		if strings.Contains(g, ".(*Prefetcher).work(") {
			workers++
		}
		state, _, _ := strings.Cut(g[strings.IndexByte(g, '[')+1:], "]")
		state, _, _ = strings.Cut(state, ",")
		switch state {
		case "chan receive", "select", "sleep", "sync.Cond.Wait", "sync.WaitGroup.Wait":
		default:
			busy = true
		}
	}
	return busy, workers
}

func (r *fuzzRun) stacks() string {
	for {
		if n := runtime.Stack(r.buf, true); n < len(r.buf) {
			return string(r.buf[:n])
		}
		r.buf = make([]byte, 2*len(r.buf))
	}
}

func (r *fuzzRun) watchdog() {
	if time.Now().After(r.deadline) {
		r.fail("still running after %v:\n%s", fuzzWatchdog, r.stacks())
	}
}

func (r *fuzzRun) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf(r.name+r.step+": "+format, args...)
}

// finish lands everything, lets every lane run out and closes the
// Prefetcher, then checks that no worker is left, that a Hint launches
// nothing and the counters.
func (r *fuzzRun) finish() {
	r.step = "the end"
	r.b.mu.Lock()
	r.b.open = true
	r.b.mu.Unlock()
	r.landAll()
	for _, l := range r.lanes {
		close(l)
	}
	done := make(chan struct{})
	go func() {
		r.lanesRun.Wait()
		r.p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Until(r.deadline)):
		r.watchdog()
	}
	for {
		if _, workers := r.scan(); workers <= r.workers0 {
			break
		}
		r.watchdog()
		time.Sleep(time.Millisecond)
	}
	st := r.p.Stats()
	if got := r.p.Hint(4, fuzzURL[:]...); got != 0 || r.p.Stats().Launched != st.Launched {
		r.fail("a Hint after Close settled %d and launched %d", got, r.p.Stats().Launched-st.Launched)
	}
	r.settle()
	r.b.mu.Lock()
	fetched := len(r.b.seen)
	r.b.mu.Unlock()
	if gets := int(r.gets.Load()); st.Hits+st.Misses != gets || st.Launched != fetched {
		r.fail("stats %+v after %d Gets and %d speculative fetches", st, gets, fetched)
	}
}
