package frontier

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// drainGrouped empties the grouped frontier's free list, so the next
// frontier allocates its source and starts with no table.
func drainGrouped() {
	for len(groupedFree) > 0 {
		<-groupedFree
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
	defer drainGrouped()
	drainGrouped()
	fresh := NewGrouped(42)
	fillGrouped(fresh)
	want := groupedTurns(fresh, 1000)

	used := NewGrouped(7)
	fillGrouped(used)
	groupedTurns(used, 10)
	parked := used.src.src
	used.Release()
	if used.src != nil || used.rng != nil || len(groupedFree) != 1 {
		t.Fatalf("after Release: generator still held %v, %d parked", used.src != nil, len(groupedFree))
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
	drainGrouped()
	ref := NewGrouped(42)
	fillGrouped(ref)
	groupedTurns(ref, 12)
	st := ref.Snapshot()
	wantTail := groupedTurns(ref, 1000)

	used = NewGrouped(3)
	fillGrouped(used)
	groupedTurns(used, 5)
	parked = used.src.src
	used.Release()
	restored := NewGrouped(0)
	restored.Restore(st)
	if restored.src.src != parked {
		t.Fatal("Restore allocated a source with one parked")
	}
	if got := groupedTurns(restored, 1000); !slices.Equal(got, wantTail) {
		t.Errorf("turns after Restore onto a reused source:\n%v\nafter the snapshot:\n%v", got, wantTail)
	}
}

// TestParkedGroupsAreEmpty: a released frontier parks its action table
// pinning nothing of its crawl — no URL left in any slot's spare capacity —
// with the capacity kept, and the next frontier takes it. (That it starts
// empty, TestSteadyState's crawls show.)
func TestParkedGroupsAreEmpty(t *testing.T) {
	defer drainGrouped()
	drainGrouped()
	g := NewGrouped(1)
	fillGrouped(g)
	g.Push(-1, "zero")
	groupedTurns(g, 10)
	g.Release()
	if g.byAction != nil || len(groupedFree) != 1 {
		t.Fatalf("after Release: table still held %v, %d parked", g.byAction != nil, len(groupedFree))
	}
	p := <-groupedFree
	all := p.byAction
	if len(all) != 0 || cap(all) < 6 {
		t.Fatalf("parked table len %d cap %d: want an empty table with room for 6 slots", len(all), cap(all))
	}
	for s, links := range all[:cap(all)] {
		for i, u := range links[:cap(links)] {
			if u != "" {
				t.Fatalf("parked slot %d pins %q at %d", s, u, i)
			}
		}
	}
	if cap(all[:1][0]) == 0 || cap(all[:6][5]) < 7 {
		t.Fatal("the parked table dropped its slots' capacity")
	}
	groupedFree <- p
	next := NewGrouped(2)
	if len(groupedFree) != 0 || cap(next.byAction) != cap(all) {
		t.Fatal("NewGrouped did not take the parked table")
	}
}

// TestOutsizedGroupsAreNotParked: a table with more than maxParkedActions
// slots, or more than maxParkedLinks link slots over all its actions, is left
// to the GC: a free list never lets go of what it holds.
func TestOutsizedGroupsAreNotParked(t *testing.T) {
	defer drainGrouped()
	for _, tc := range []struct {
		name string
		fill func(g *Grouped)
	}{
		{"actions", func(g *Grouped) { g.Push(maxParkedActions, "u") }},
		{"links", func(g *Grouped) {
			for i := range maxParkedLinks + 1 {
				g.Push(i%3, "u")
			}
		}},
	} {
		drainGrouped()
		g := NewGrouped(1)
		tc.fill(g)
		g.Release()
		if (<-groupedFree).byAction != nil {
			t.Errorf("%s: an outsized table was parked", tc.name)
		}
	}
}

// groupedModel is the map-keyed grouped frontier the dense table replaced:
// each action's links in a map entry deleted when it empties, the awake set
// its sorted keys, and the same draw (Intn over the action's links, then a
// swap-remove) from a generator of the same seed.
type groupedModel struct {
	byAction map[int][]string
	seed     int64
	src      *countedSource
	rng      *rand.Rand
}

func newGroupedModel(seed int64) *groupedModel {
	src := &countedSource{src: rand.NewSource(seed)}
	return &groupedModel{byAction: map[int][]string{}, seed: seed, src: src, rng: rand.New(src)}
}

func (m *groupedModel) push(a int, u string) { m.byAction[a] = append(m.byAction[a], u) }

func (m *groupedModel) awake() []int {
	var out []int
	for a := range m.byAction {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

func (m *groupedModel) pop(a int) (string, bool) {
	links := m.byAction[a]
	n := len(links)
	if n == 0 {
		return "", false
	}
	i := m.rng.Intn(n)
	u := links[i]
	links[i] = links[n-1]
	if links = links[:n-1]; len(links) == 0 {
		delete(m.byAction, a)
	} else {
		m.byAction[a] = links
	}
	return u, true
}

// peek draws what pop would on a copy of the generator, replayed from the
// seed.
func (m *groupedModel) peek(a int) (string, bool) {
	links := m.byAction[a]
	if len(links) == 0 {
		return "", false
	}
	src := rand.NewSource(m.seed)
	for range m.src.draws {
		src.Int63()
	}
	return links[rand.New(src).Intn(len(links))], true
}

// TestGroupedMatchesMapReference: random Push, PopFrom and PeekFrom
// sequences over actions −1 to 11 give, after every operation, the awake
// set, lengths and draws of the map-keyed reference — on a new table and on
// one a larger frontier parked.
func TestGroupedMatchesMapReference(t *testing.T) {
	defer drainGrouped()
	drainGrouped()
	for round := range 40 {
		ops := rand.New(rand.NewSource(int64(round)))
		seed := int64(round * 7)
		g, m := NewGrouped(seed), newGroupedModel(seed)
		var buf []int
		for i := range 600 {
			a := ops.Intn(13) - 1
			switch k := ops.Intn(10); {
			case k < 5:
				u := fmt.Sprintf("r%d/%d", round, i)
				g.Push(a, u)
				m.push(a, u)
			case k < 8:
				got, ok := g.PopFrom(a)
				want, wok := m.pop(a)
				if got != want || ok != wok {
					t.Fatalf("round %d op %d: PopFrom(%d) = %q,%v, reference %q,%v", round, i, a, got, ok, want, wok)
				}
			default:
				got, ok := g.PeekFrom(a)
				want, wok := m.peek(a)
				if ok != wok || got != want {
					t.Fatalf("round %d op %d: PeekFrom(%d) = %q,%v, reference %q,%v", round, i, a, got, ok, want, wok)
				}
			}
			buf = g.AppendAwake(buf[:0])
			if want := m.awake(); !slices.Equal(buf, want) || !slices.Equal(g.Awake(), want) {
				t.Fatalf("round %d op %d: Awake = %v, reference %v", round, i, buf, want)
			}
			total := 0
			for b := -1; b <= 13; b++ {
				if g.ActionLen(b) != len(m.byAction[b]) {
					t.Fatalf("round %d op %d: ActionLen(%d) = %d, reference %d", round, i, b, g.ActionLen(b), len(m.byAction[b]))
				}
				total += len(m.byAction[b])
			}
			if g.Len() != total {
				t.Fatalf("round %d op %d: Len = %d, reference %d", round, i, g.Len(), total)
			}
		}
		if g.src.draws != m.src.draws {
			t.Fatalf("round %d: %d draws, reference %d", round, g.src.draws, m.src.draws)
		}
		if round%2 == 0 {
			g.Push(20, "wide") // the next round starts on a table wider than it needs
		}
		g.Release()
	}
}

// TestPushIntoEmptiedActionAllocs: once its slots have grown, a frontier
// pushing into actions it has emptied — the zero bucket −1 included —
// allocates nothing, and neither does AppendAwake into a kept buffer.
func TestPushIntoEmptiedActionAllocs(t *testing.T) {
	g := NewGrouped(1)
	urls := make([]string, 8)
	for i := range urls {
		urls[i] = fmt.Sprintf("u%d", i)
	}
	var awake []int
	cycle := func() {
		for _, u := range urls {
			g.Push(3, u)
			g.Push(-1, u)
		}
		awake = g.AppendAwake(awake[:0])
		for g.Len() > 0 {
			g.PopFrom(3)
			g.PopFrom(-1)
		}
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("filling and emptying two actions allocates %v per cycle once warm, want 0", got)
	}
}
