package frontier

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
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

// TestSnapshotGobRoundTrip guards a state's serializability: a Grouped
// snapshot taken after draws survives encoding/gob and restores to the same
// draw sequence.
func TestSnapshotGobRoundTrip(t *testing.T) {
	g := NewGrouped(5)
	for _, u := range []string{"x", "y", "z", "w"} {
		g.Push(1, u)
	}
	g.PopFrom(1) // consume RNG state
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var st GroupedState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	fresh := NewGrouped(0)
	fresh.Restore(st)
	if got, want := drainPops(func() (string, bool) { return fresh.PopFrom(1) }, 10),
		drainPops(func() (string, bool) { return g.PopFrom(1) }, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("gob round trip diverged: %v vs %v", got, want)
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

// Restore replaces the frontier's state with the snapshot.
func (g *Grouped) Restore(st GroupedState) {
	g.byAction, g.total = nil, 0
	for a, links := range st.Actions {
		for _, u := range links {
			g.Push(a, u)
		}
	}
	g.seed = st.Seed
	g.src.src.Seed(st.Seed) // the source NewGrouped gave g, parked or new
	g.src = &countedSource{src: g.src.src}
	g.rng = rand.New(g.src)
	for range st.Draws {
		g.src.Int63()
	}
}
