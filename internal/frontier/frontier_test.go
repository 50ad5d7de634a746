package frontier

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Push(fmt.Sprintf("u%d", i))
	}
	for i := 0; i < 5; i++ {
		u, ok := q.Pop()
		if !ok || u != fmt.Sprintf("u%d", i) {
			t.Fatalf("pop %d = %q ok=%v", i, u, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("empty queue must report !ok")
	}
}

func TestQueueCompaction(t *testing.T) {
	var q Queue
	const n = 5000
	for i := 0; i < n; i++ {
		q.Push(fmt.Sprintf("u%d", i))
	}
	for i := 0; i < n-1; i++ {
		if _, ok := q.Pop(); !ok {
			t.Fatal("unexpected empty")
		}
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
	u, ok := q.Pop()
	if !ok || u != fmt.Sprintf("u%d", n-1) {
		t.Errorf("last pop = %q", u)
	}
}

func TestStackLIFO(t *testing.T) {
	var s Stack
	s.Push("a")
	s.Push("b")
	if u, _ := s.Pop(); u != "b" {
		t.Errorf("pop = %q, want b", u)
	}
	if u, _ := s.Pop(); u != "a" {
		t.Errorf("pop = %q, want a", u)
	}
	if _, ok := s.Pop(); ok {
		t.Error("empty stack must report !ok")
	}
}

func TestRandomPopsEverythingOnce(t *testing.T) {
	r := NewRandom(42)
	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		u := fmt.Sprintf("u%d", i)
		want[u] = true
		r.Push(u)
	}
	got := map[string]bool{}
	for {
		u, ok := r.Pop()
		if !ok {
			break
		}
		if got[u] {
			t.Fatalf("URL %q popped twice", u)
		}
		got[u] = true
	}
	if len(got) != len(want) {
		t.Errorf("popped %d of %d", len(got), len(want))
	}
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	run := func() []string {
		r := NewRandom(7)
		for i := 0; i < 20; i++ {
			r.Push(fmt.Sprintf("u%d", i))
		}
		var out []string
		for {
			u, ok := r.Pop()
			if !ok {
				return out
			}
			out = append(out, u)
		}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed random frontier diverged")
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	var p Priority
	p.Push("low", 1)
	p.Push("high", 10)
	p.Push("mid", 5)
	wantOrder := []string{"high", "mid", "low"}
	for _, want := range wantOrder {
		u, _, ok := p.Pop()
		if !ok || u != want {
			t.Fatalf("pop = %q, want %q", u, want)
		}
	}
}

func TestPriorityTieBreaksByInsertion(t *testing.T) {
	var p Priority
	p.Push("first", 3)
	p.Push("second", 3)
	u, _, _ := p.Pop()
	if u != "first" {
		t.Errorf("tie should pop insertion order, got %q", u)
	}
}

func TestPriorityRescore(t *testing.T) {
	var p Priority
	p.Push("a", 1)
	p.Push("b", 2)
	p.Rescore(func(u string) float64 {
		if u == "a" {
			return 100
		}
		return 0
	})
	u, score, _ := p.Pop()
	if u != "a" || score != 100 {
		t.Errorf("after rescore pop = %q (%v)", u, score)
	}
}

func TestGroupedActionLifecycle(t *testing.T) {
	g := NewGrouped(3)
	g.Push(0, "a1")
	g.Push(0, "a2")
	g.Push(5, "b1")
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	awake := g.Awake()
	sort.Ints(awake)
	if len(awake) != 2 || awake[0] != 0 || awake[1] != 5 {
		t.Fatalf("Awake = %v", awake)
	}
	if g.ActionLen(0) != 2 {
		t.Errorf("ActionLen(0) = %d", g.ActionLen(0))
	}
	// Drain action 0; it must fall asleep.
	if _, ok := g.PopFrom(0); !ok {
		t.Fatal("pop failed")
	}
	if _, ok := g.PopFrom(0); !ok {
		t.Fatal("pop failed")
	}
	if _, ok := g.PopFrom(0); ok {
		t.Error("drained action must report !ok")
	}
	awake = g.Awake()
	if len(awake) != 1 || awake[0] != 5 {
		t.Errorf("Awake after drain = %v", awake)
	}
}

func TestGroupedPopAny(t *testing.T) {
	g := NewGrouped(9)
	seen := map[string]bool{}
	for i := 0; i < 30; i++ {
		u := fmt.Sprintf("u%d", i)
		g.Push(i%4, u)
		seen[u] = true
	}
	for i := 0; i < 30; i++ {
		u, action, ok := g.PopAny()
		if !ok {
			t.Fatalf("PopAny failed at %d", i)
		}
		if !seen[u] {
			t.Fatalf("unknown or duplicate URL %q", u)
		}
		delete(seen, u)
		if action < 0 || action > 3 {
			t.Fatalf("bad action %d", action)
		}
	}
	if _, _, ok := g.PopAny(); ok {
		t.Error("empty grouped frontier must report !ok")
	}
}

// Property: pushes minus pops equals Len, and no URL is ever lost or
// duplicated, for arbitrary interleavings.
func TestGroupedConservationProperty(t *testing.T) {
	type op struct {
		Push   bool
		Action uint8
	}
	f := func(ops []op) bool {
		g := NewGrouped(1)
		live := map[string]bool{}
		counter := 0
		for _, o := range ops {
			if o.Push {
				u := fmt.Sprintf("u%d", counter)
				counter++
				g.Push(int(o.Action%8), u)
				live[u] = true
			} else {
				u, _, ok := g.PopAny()
				if ok {
					if !live[u] {
						return false
					}
					delete(live, u)
				} else if len(live) != 0 {
					return false
				}
			}
			if g.Len() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGroupedDeterministicPerSeed(t *testing.T) {
	run := func() []string {
		g := NewGrouped(5)
		for i := 0; i < 40; i++ {
			g.Push(i%7, fmt.Sprintf("u%d", i))
		}
		var out []string
		for {
			u, _, ok := g.PopAny()
			if !ok {
				return out
			}
			out = append(out, u)
		}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grouped frontier diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestQueueCompactionPastHeadThreshold drives Pop just past the 1024-head
// compaction trigger while new pushes keep arriving, pinning that the
// compaction slide never reorders, drops, or duplicates items.
func TestQueueCompactionPastHeadThreshold(t *testing.T) {
	var q Queue
	const initial = 1100 // > the 1024 head threshold
	for i := 0; i < initial; i++ {
		q.Push(fmt.Sprintf("u%d", i))
	}
	// Pop across the threshold, pushing one new item per pop so the live
	// window straddles the compaction point (head*2 > len fires mid-way).
	next := initial
	for i := 0; i < initial; i++ {
		u, ok := q.Pop()
		if !ok || u != fmt.Sprintf("u%d", i) {
			t.Fatalf("pop %d = %q ok=%v, want u%d", i, u, ok, i)
		}
		q.Push(fmt.Sprintf("u%d", next))
		next++
	}
	if q.Len() != initial {
		t.Fatalf("Len = %d, want %d", q.Len(), initial)
	}
	// Drain: FIFO order must continue seamlessly across the compaction.
	for i := initial; i < 2*initial; i++ {
		u, ok := q.Pop()
		if !ok || u != fmt.Sprintf("u%d", i) {
			t.Fatalf("drain pop = %q ok=%v, want u%d", u, ok, i)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len after drain = %d, want 0", q.Len())
	}
}

// TestQueuePopAfterEmpty pins the empty-queue contract: Pop keeps reporting
// !ok without disturbing state, and the queue remains usable afterwards.
func TestQueuePopAfterEmpty(t *testing.T) {
	var q Queue
	q.Push("a")
	if u, ok := q.Pop(); !ok || u != "a" {
		t.Fatalf("pop = %q ok=%v", u, ok)
	}
	for i := 0; i < 3; i++ {
		if u, ok := q.Pop(); ok || u != "" {
			t.Fatalf("pop on empty = %q ok=%v, want \"\" false", u, ok)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.Len())
	}
	q.Push("b")
	if u, ok := q.Pop(); !ok || u != "b" {
		t.Errorf("queue unusable after empty pops: %q ok=%v", u, ok)
	}
}

// TestPeekMatchesPopOrder pins the peek contract for the deterministic
// frontiers: Peek(n) previews exactly the next n pops, without consuming.
func TestPeekMatchesPopOrder(t *testing.T) {
	var q Queue
	var s Stack
	var p Priority
	for i := 0; i < 6; i++ {
		q.Push(fmt.Sprintf("u%d", i))
		s.Push(fmt.Sprintf("u%d", i))
		p.Push(fmt.Sprintf("u%d", i), float64(i%3))
	}
	check := func(name string, peek []string, pop func() (string, bool)) {
		t.Helper()
		for i, want := range peek {
			got, ok := pop()
			if !ok || got != want {
				t.Errorf("%s: pop %d = %q ok=%v, want %q", name, i, got, ok, want)
			}
		}
	}
	// Queue.Peek is a view, valid only until the next Pop: copy it first.
	check("Queue", append([]string(nil), q.Peek(4)...), q.Pop)
	check("Stack", s.Peek(4), s.Pop)
	check("Priority", p.Peek(4), func() (string, bool) { u, _, ok := p.Pop(); return u, ok })
}

// TestQueuePeekIsAView pins the peek storage contract for the FIFO
// frontier: peeking allocates nothing however wide (the pipelined BFS loop
// peeks a full window every step), and the view is capacity-clipped so a
// caller's append cannot write into the queue.
func TestQueuePeekIsAView(t *testing.T) {
	var q Queue
	for i := 0; i < 600; i++ {
		q.Push(fmt.Sprintf("u%d", i))
	}
	q.Pop()
	if allocs := testing.AllocsPerRun(100, func() { q.Peek(256) }); allocs != 0 {
		t.Errorf("Queue.Peek(256) allocated %v times per call, want 0", allocs)
	}
	view := q.Peek(3)
	if len(view) != 3 || cap(view) != 3 || view[0] != "u1" {
		t.Fatalf("Peek(3) = %v (cap %d), want [u1 u2 u3] with cap 3", view, cap(view))
	}
	_ = append(view, "intruder")
	q.Pop()
	q.Pop()
	q.Pop()
	if got, _ := q.Pop(); got != "u4" {
		t.Errorf("append to a peeked view overwrote the queue: next pop = %q, want u4", got)
	}
}

// TestPeekOverAsk pins that Peek clamps to Len and never errors.
func TestPeekOverAsk(t *testing.T) {
	var q Queue
	if got := q.Peek(3); len(got) != 0 {
		t.Errorf("empty peek = %v", got)
	}
	q.Push("a")
	if got := q.Peek(10); len(got) != 1 || got[0] != "a" {
		t.Errorf("over-ask peek = %v", got)
	}
}

// TestRandomPeekDoesNotConsumeRandomness pins the crucial peek property
// for randomized frontiers: peeking must not change what Pop later draws.
func TestRandomPeekDoesNotConsumeRandomness(t *testing.T) {
	pops := func(peek bool) []string {
		r := NewRandom(42)
		for i := 0; i < 20; i++ {
			r.Push(fmt.Sprintf("u%d", i))
		}
		var out []string
		for {
			if peek {
				r.Peek(5)
			}
			u, ok := r.Pop()
			if !ok {
				break
			}
			out = append(out, u)
		}
		return out
	}
	a, b := pops(false), pops(true)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("Peek changed Pop sequence:\nwithout: %v\nwith:    %v", a, b)
	}
}

// TestGroupedPeekDoesNotConsumeRandomness is the same property for the
// action-grouped frontier of SB-CLASSIFIER.
func TestGroupedPeekDoesNotConsumeRandomness(t *testing.T) {
	pops := func(peek bool) []string {
		g := NewGrouped(7)
		for i := 0; i < 20; i++ {
			g.Push(i%4, fmt.Sprintf("u%d", i))
		}
		var out []string
		for g.Len() > 0 {
			if peek {
				g.Peek(6)
			}
			u, _, ok := g.PopAny()
			if !ok {
				break
			}
			out = append(out, u)
		}
		return out
	}
	a, b := pops(false), pops(true)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("Peek changed PopAny sequence:\nwithout: %v\nwith:    %v", a, b)
	}
}

// TestGroupedPeekIsNextDrawPerAction pins Peek for the grouped frontier:
// one URL per awake action, in increasing action order, each the link the
// action's next PopFrom would draw; n caps the list.
func TestGroupedPeekIsNextDrawPerAction(t *testing.T) {
	g := NewGrouped(1)
	g.Push(2, "b0")
	g.Push(0, "a0")
	g.Push(0, "a1")
	g.Push(0, "a2")
	g.Push(5, "c0")
	got := g.Peek(4)
	if len(got) != 3 || got[1] != "b0" || got[2] != "c0" {
		t.Fatalf("Peek = %v, want one link of action 0, then b0, c0", got)
	}
	if two := g.Peek(2); len(two) != 2 || two[0] != got[0] || two[1] != "b0" {
		t.Errorf("Peek(2) = %v, want the first two of %v", two, got)
	}
	if g.Len() != 5 {
		t.Errorf("Peek consumed items: Len = %d", g.Len())
	}
	if u, _ := g.PopFrom(0); u != got[0] {
		t.Errorf("PopFrom(0) = %q, Peek said %q", u, got[0])
	}
}

// PopAny removes and returns a uniformly random URL across all actions
// (Algorithm 3's fallback when the action set is still empty). Actions are
// walked in sorted order so the draw is deterministic for a given seed — Go
// map iteration order must never leak into crawler behaviour.
func (g *Grouped) PopAny() (string, int, bool) {
	if g.total == 0 {
		return "", 0, false
	}
	k := g.rng.Intn(g.total)
	for _, action := range g.Awake() {
		links := g.links(action)
		if k < len(links) {
			u, _ := g.popAt(action, k)
			return u, action, true
		}
		k -= len(links)
	}
	return "", 0, false // unreachable while total is consistent
}
