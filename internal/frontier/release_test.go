package frontier

import (
	"fmt"
	"slices"
	"testing"
)

// drainSources empties the source free list, so the next generator
// allocates.
func drainSources() {
	for len(sourceFree) > 0 {
		<-sourceFree
	}
}

// fillGrouped pushes seven links under each of five actions.
func fillGrouped(g *Grouped) {
	for a := range 5 {
		for i := range 7 {
			g.Push(a, fmt.Sprintf("a%d/%d", a, i))
		}
	}
}

// groupedTurns plays up to n turns on g — every third a PopAny, the others a
// PeekFrom then a PopFrom of one action — and records every answer.
func groupedTurns(g *Grouped, n int) []string {
	var out []string
	for k := 0; k < n && g.Len() > 0; k++ {
		if k%3 == 0 {
			u, a, ok := g.PopAny()
			out = append(out, fmt.Sprint("any ", u, a, ok))
			continue
		}
		a := k % 5
		u, ok := g.PeekFrom(a)
		out = append(out, fmt.Sprint("peek ", u, ok))
		u, ok = g.PopFrom(a)
		out = append(out, fmt.Sprint("pop ", u, ok))
	}
	return out
}

// TestReleasedSourceIsFresh: a grouped frontier on the source a used one
// released — seeded differently and part-way through its stream — peeks and
// pops exactly like one built with the free list empty, and so does a
// frontier restored onto a released source.
func TestReleasedSourceIsFresh(t *testing.T) {
	defer drainSources()
	drainSources()
	fresh := NewGrouped(42)
	fillGrouped(fresh)
	want := groupedTurns(fresh, 1000)

	used := NewGrouped(7)
	fillGrouped(used)
	groupedTurns(used, 10)
	parked := used.src.src
	used.Release()
	if used.src != nil || used.rng != nil || len(sourceFree) != 1 {
		t.Fatalf("after Release: generator still held %v, %d parked", used.src != nil, len(sourceFree))
	}
	reused := NewGrouped(42)
	if reused.src.src != parked {
		t.Fatal("NewGrouped allocated a source with one parked")
	}
	fillGrouped(reused)
	if got := groupedTurns(reused, 1000); !slices.Equal(got, want) {
		t.Errorf("turns on a reused source:\n%v\non a fresh one:\n%v", got, want)
	}

	// Restore: a snapshot taken mid-way continues the same on a released
	// source as on a new one.
	drainSources()
	ref := NewGrouped(42)
	fillGrouped(ref)
	groupedTurns(ref, 12)
	st := ref.Snapshot()
	wantTail := groupedTurns(ref, 1000)

	restored := NewGrouped(0)
	used = NewGrouped(3)
	fillGrouped(used)
	groupedTurns(used, 5)
	parked = used.src.src
	used.Release()
	restored.Restore(st)
	if restored.src.src != parked {
		t.Fatal("Restore allocated a source with one parked")
	}
	if got := groupedTurns(restored, 1000); !slices.Equal(got, wantTail) {
		t.Errorf("turns after Restore onto a reused source:\n%v\nafter the snapshot:\n%v", got, wantTail)
	}
}
