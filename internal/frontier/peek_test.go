package frontier

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// scriptedSource replays fixed Int63 values, then falls back to a real
// source: the way to put a chosen value under Intn's rejection test.
type scriptedSource struct {
	vals []int64
	rest rand.Source
}

func (s *scriptedSource) Int63() int64 {
	if len(s.vals) > 0 {
		v := s.vals[0]
		s.vals = s.vals[1:]
		return v
	}
	return s.rest.Int63()
}

func (s *scriptedSource) Seed(int64) {}

// TestGroupedPeekFromMatchesPop pins the exact-next-draw contract: for every
// group size from 70 down to 1 (powers of two take Int31n's mask branch, the
// rest its modulus branch) PeekFrom names the link the next PopFrom draws,
// and peeking — once or repeatedly — never advances Draws.
func TestGroupedPeekFromMatchesPop(t *testing.T) {
	for size := 1; size <= 70; size++ {
		g, twin := NewGrouped(int64(size)), NewGrouped(int64(size))
		for i := 0; i < size; i++ {
			for _, f := range []*Grouped{g, twin} {
				f.Push(3, fmt.Sprintf("u%d", i))
				f.Push(9, fmt.Sprintf("other%d", i))
			}
		}
		for g.ActionLen(3) > 0 {
			draws := g.src.draws
			want, ok := g.PeekFrom(3)
			if again, ok2 := g.PeekFrom(3); again != want || ok2 != ok {
				t.Fatalf("size %d: second PeekFrom = %q,%v, first %q,%v", size, again, ok2, want, ok)
			}
			g.PeekFrom(9) // another action reads the same buffered value
			if g.src.draws != draws {
				t.Fatalf("size %d: peeking moved Draws %d → %d", size, draws, g.src.draws)
			}
			got, _ := g.PopFrom(3)
			// !ok needs a rejected draw, ~size/2³¹: none under these seeds.
			if !ok || got != want {
				t.Fatalf("size %d at %d left: PopFrom = %q, PeekFrom said %q,%v", size, g.ActionLen(3)+1, got, want, ok)
			}
			if ref, _ := twin.PopFrom(3); ref != got {
				t.Fatalf("size %d: peeked frontier drew %q, unpeeked twin %q", size, got, ref)
			}
		}
		if _, ok := g.PeekFrom(3); ok {
			t.Errorf("size %d: PeekFrom on a sleeping action reported ok", size)
		}
		if !reflect.DeepEqual(g.Snapshot(), twin.Snapshot()) {
			t.Errorf("size %d: snapshots diverged after peeking", size)
		}
	}
}

// TestGroupedPeekFromRejectedDraw forces the value Int31n throws away: with
// three links max is 2³¹−3, so an Int31 of 2³¹−1 is redrawn. PeekFrom holds
// one value of lookahead and must decline rather than guess; the pop then
// consumes both values, and the next peek is exact again.
func TestGroupedPeekFromRejectedDraw(t *testing.T) {
	build := func() *Grouped {
		cs := &countedSource{src: &scriptedSource{
			vals: []int64{(1<<31 - 1) << 32, 7 << 32},
			rest: rand.NewSource(5),
		}}
		g := &Grouped{rng: rand.New(cs), src: cs}
		for _, u := range []string{"a", "b", "c"} {
			g.Push(0, u)
		}
		return g
	}
	g, twin := build(), build()
	if u, ok := g.PeekFrom(0); ok {
		t.Fatalf("PeekFrom = %q on a value Intn rejects, want !ok", u)
	}
	got, _ := g.PopFrom(0)
	want, _ := twin.PopFrom(0)
	if got != want || got != "b" { // 7 % 3 == 1
		t.Fatalf("pop after a declined peek = %q, unpeeked twin %q, want b", got, want)
	}
	if g.src.draws != 2 || twin.src.draws != 2 {
		t.Errorf("draws = %d / %d, want 2 (the rejected value and its redraw)", g.src.draws, twin.src.draws)
	}
	next, ok := g.PeekFrom(0)
	if got, _ := g.PopFrom(0); !ok || got != next {
		t.Errorf("peek after the redraw = %q,%v, pop %q", next, ok, got)
	}
}

// TestGroupedSnapshotWithLookahead takes the snapshot while a lookahead
// value is buffered: Draws must not count it, and the restored frontier —
// which re-seeds and burns Draws values — must continue the exact sequence.
func TestGroupedSnapshotWithLookahead(t *testing.T) {
	g, twin := NewGrouped(11), NewGrouped(11)
	for i := 0; i < 40; i++ {
		g.Push(i%5, fmt.Sprintf("u%d", i))
		twin.Push(i%5, fmt.Sprintf("u%d", i))
	}
	for i := 0; i < 7; i++ {
		g.PeekFrom(i % 5)
		a, _ := g.PopFrom(i % 5)
		b, _ := twin.PopFrom(i % 5)
		if a != b {
			t.Fatalf("pop %d: %q vs %q", i, a, b)
		}
	}
	g.PeekFrom(2) // buffered, unconsumed
	st := g.Snapshot()
	if want := twin.Snapshot(); !reflect.DeepEqual(st, want) {
		t.Fatalf("snapshot with a buffered lookahead differs from the unpeeked one:\n%+v\n%+v", st, want)
	}
	fresh := NewGrouped(0)
	fresh.Restore(st)
	for i := 0; twin.Len() > 0; i++ {
		a, _, _ := fresh.PopAny()
		b, _, _ := g.PopAny()
		c, _, _ := twin.PopAny()
		if a != c || b != c {
			t.Fatalf("pop %d after restore: restored %q, peeked original %q, unpeeked %q", i, a, b, c)
		}
	}
}

// FuzzGroupedPeekPop drives a Grouped that peeks at every opportunity and a
// twin that never does through the same push/pop/snapshot stream: every pop,
// Len and Draws must agree, and an ok PeekFrom must name the following
// PopFrom of that action.
func FuzzGroupedPeekPop(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 16, 17, 32, 33, 48, 64, 80, 20, 36})
	f.Add(int64(7), []byte{0, 0, 0, 0, 0, 16, 16, 16, 16, 16, 16})
	f.Add(int64(-3), []byte{1, 2, 3, 48, 48, 48, 64, 17, 80, 18, 19})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		g, twin := NewGrouped(seed), NewGrouped(seed)
		for i, op := range ops {
			action := int(op & 3)
			switch op >> 4 & 7 {
			case 0:
				u := fmt.Sprintf("u%d", i)
				g.Push(action, u)
				twin.Push(action, u)
			case 1:
				want, ok := g.PeekFrom(action)
				got, popped := g.PopFrom(action)
				ref, _ := twin.PopFrom(action)
				if got != ref || (ok && got != want) || (ok && !popped) {
					t.Fatalf("op %d: PopFrom(%d) = %q, twin %q, PeekFrom said %q,%v", i, action, got, ref, want, ok)
				}
			case 2:
				g.Peek(action + 1)
				a, aa, _ := g.PopAny()
				b, ba, _ := twin.PopAny()
				if a != b || aa != ba {
					t.Fatalf("op %d: PopAny = %q/%d, twin %q/%d", i, a, aa, b, ba)
				}
			case 3:
				g.PeekFrom(action)
			case 4:
				g.PeekFrom(action)
				st := g.Snapshot()
				if !reflect.DeepEqual(st, twin.Snapshot()) {
					t.Fatalf("op %d: snapshots differ", i)
				}
				g = NewGrouped(0)
				g.Restore(st)
			default:
				g.Peek(8)
			}
			if g.Len() != twin.Len() || g.src.draws != twin.src.draws {
				t.Fatalf("op %d: Len %d/%d Draws %d/%d", i, g.Len(), twin.Len(), g.src.draws, twin.src.draws)
			}
		}
	})
}
