package frontier

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
)

// drainPops pops up to n URLs (with pushes interleaved by the caller
// beforehand), recording the exact sequence.
func drainPops(pop func() (string, bool), n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		u, ok := pop()
		if !ok {
			break
		}
		out = append(out, u)
	}
	return out
}

func TestQueueSnapshotRestore(t *testing.T) {
	q := &Queue{}
	for i := 0; i < 10; i++ {
		q.Push(fmt.Sprintf("u%d", i))
	}
	q.Pop()
	q.Pop()
	st := q.Snapshot()

	var fresh Queue
	fresh.Restore(st)
	want := drainPops(q.Pop, 100)
	got := drainPops(fresh.Pop, 100)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored queue pops %v, original %v", got, want)
	}
}

func TestStackSnapshotRestore(t *testing.T) {
	s := &Stack{}
	for i := 0; i < 10; i++ {
		s.Push(fmt.Sprintf("u%d", i))
	}
	s.Pop()
	st := s.Snapshot()
	var fresh Stack
	fresh.Restore(st)
	if got, want := drainPops(fresh.Pop, 100), drainPops(s.Pop, 100); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored stack pops %v, original %v", got, want)
	}
}

// TestRandomSnapshotRestore is the RNG-state gate: the snapshot is taken
// mid-stream, after the generator has been consumed, and the restored
// frontier must continue the exact draw sequence.
func TestRandomSnapshotRestore(t *testing.T) {
	r := NewRandom(42)
	for i := 0; i < 50; i++ {
		r.Push(fmt.Sprintf("u%d", i))
	}
	for i := 0; i < 17; i++ { // consume RNG state
		r.Pop()
	}
	st := r.Snapshot()

	fresh := NewRandom(999) // wrong seed on purpose; Restore must override
	fresh.Restore(st)
	want := drainPops(r.Pop, 100)
	got := drainPops(fresh.Pop, 100)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored random frontier diverged:\ngot  %v\nwant %v", got, want)
	}
}

func TestPrioritySnapshotRestore(t *testing.T) {
	p := &Priority{}
	for i := 0; i < 30; i++ {
		p.Push(fmt.Sprintf("u%d", i), float64(i%5)) // plenty of score ties
	}
	for i := 0; i < 7; i++ {
		p.Pop()
	}
	st := p.Snapshot()

	var fresh Priority
	fresh.Restore(st)
	// Tie-breaking depends on both heap layout and the seq counter; new
	// pushes after Restore must interleave identically too.
	p.Push("late-a", 2.5)
	fresh.Push("late-a", 2.5)
	for i := 0; i < 100; i++ {
		wu, ws, wok := p.Pop()
		gu, gs, gok := fresh.Pop()
		if wu != gu || ws != gs || wok != gok {
			t.Fatalf("pop %d diverged: got (%q,%v,%v) want (%q,%v,%v)", i, gu, gs, gok, wu, ws, wok)
		}
		if !wok {
			break
		}
	}
}

func TestGroupedSnapshotRestore(t *testing.T) {
	g := NewGrouped(7)
	for i := 0; i < 60; i++ {
		g.Push(i%4, fmt.Sprintf("u%d", i))
	}
	for i := 0; i < 13; i++ {
		g.PopFrom(i % 4)
	}
	g.PopAny()
	st := g.Snapshot()

	fresh := NewGrouped(123)
	fresh.Restore(st)
	if got, want := fresh.Len(), g.Len(); got != want {
		t.Fatalf("restored Len = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(fresh.Awake(), g.Awake()) {
		t.Fatalf("Awake diverged: %v vs %v", fresh.Awake(), g.Awake())
	}
	// Continue with an interleaving of PopFrom and PopAny; the draw
	// sequence must match exactly.
	for i := 0; i < 100; i++ {
		var wu, gu string
		var wok, gok bool
		if i%3 == 0 {
			var wa, ga int
			wu, wa, wok = g.PopAny()
			gu, ga, gok = fresh.PopAny()
			if wa != ga {
				t.Fatalf("PopAny action diverged at %d: %d vs %d", i, ga, wa)
			}
		} else {
			a := i % 4
			wu, wok = g.PopFrom(a)
			gu, gok = fresh.PopFrom(a)
		}
		if wu != gu || wok != gok {
			t.Fatalf("pop %d diverged: got (%q,%v) want (%q,%v)", i, gu, gok, wu, wok)
		}
		if g.Len() == 0 {
			break
		}
	}
}

// TestSnapshotGobRoundTrip guards the states' serializability — the engine
// ships them through encoding/gob into the persistent store.
func TestSnapshotGobRoundTrip(t *testing.T) {
	r := NewRandom(3)
	r.Push("a")
	r.Push("b")
	r.Pop()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var st RandomState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	fresh := NewRandom(0)
	fresh.Restore(st)
	if got, want := drainPops(fresh.Pop, 10), drainPops(r.Pop, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("gob round trip diverged: %v vs %v", got, want)
	}

	g := NewGrouped(5)
	g.Push(1, "x")
	g.Push(2, "y")
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(g.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var gst GroupedState
	if err := gob.NewDecoder(&buf).Decode(&gst); err != nil {
		t.Fatal(err)
	}
	p := &Priority{}
	p.Push("a", 1)
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

// Restore replaces the queue's state with the snapshot.
func (q *Queue) Restore(st QueueState) {
	q.items = append([]string(nil), st.Items...)
	q.head = 0
}

// Restore replaces the stack's state with the snapshot.
func (s *Stack) Restore(st StackState) {
	s.items = append([]string(nil), st.Items...)
}

// Restore replaces the frontier's state with the snapshot; subsequent Pops
// draw exactly what the snapshotted frontier would have drawn.
func (r *Random) Restore(st RandomState) {
	r.items = append([]string(nil), st.Items...)
	r.seed = st.Seed
	r.rng, r.src = newCountedRand(st.Seed, st.Draws)
}

// Restore replaces the heap with the snapshot's layout (already
// heap-ordered, since Snapshot copied a valid heap).
func (p *Priority) Restore(st PriorityState) {
	p.h = make(scoredHeap, len(st.Entries))
	for i, e := range st.Entries {
		p.h[i] = scoredItem{url: e.URL, score: e.Score, seq: e.Seq}
	}
	p.n = st.Seq
}

// Restore replaces the frontier's state with the snapshot.
func (g *Grouped) Restore(st GroupedState) {
	g.byAction = make(map[int][]string, len(st.Actions))
	g.total = 0
	for a, links := range st.Actions {
		g.byAction[a] = append([]string(nil), links...)
		g.total += len(links)
	}
	g.seed = st.Seed
	g.rng, g.src = newCountedRand(st.Seed, st.Draws)
}
