package learn

import (
	"math"
	"sync"
	"testing"

	"sbcrawl/internal/textvec"
)

// drainTables empties the free list, so the next model grows a new table.
func drainTables() {
	for len(tableFree) > 0 {
		<-tableFree
	}
}

// tables returns the tables Release parks for m.
func tables(m Model) [][]float64 {
	switch m := m.(type) {
	case *LogisticRegression:
		return [][]float64{m.w}
	case *LinearSVM:
		return [][]float64{m.w}
	case *PassiveAggressive:
		return [][]float64{m.w}
	case *NaiveBayes:
		return [][]float64{m.featCount[0], m.featCount[1]}
	}
	return nil
}

// trainScores trains m in Algorithm 2's mini-batches and scores the held-out
// examples.
func trainScores(m Model) []float64 {
	train, test := trainTestSplit()
	for i := 0; i < len(train); i += 4 {
		m.PartialFit(train[i:min(i+4, len(train))])
	}
	scores := make([]float64, len(test))
	for k, ex := range test {
		scores[k] = score(m, ex.X)
	}
	return scores
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// TestReleaseReusesZeroedTable: a released model's tables are parked at
// length 0, grow zeroes a parked table's trained weights as it extends into
// them, the next model of the family grows into the same arrays, and it
// scores bit for bit like a model built with the free list empty.
func TestReleaseReusesZeroedTable(t *testing.T) {
	defer drainTables()
	for _, name := range ModelNames {
		drainTables()
		fresh := NewModel(name)
		want := trainScores(fresh)
		trained := tables(fresh)
		arrays := map[*float64]bool{}
		for _, w := range trained {
			arrays[&w[0]] = true
		}
		Release(fresh)
		for i, w := range tables(fresh) {
			if w != nil {
				t.Errorf("%s: table %d still referenced after Release", name, i)
			}
		}
		if len(tableFree) != len(arrays) {
			t.Fatalf("%s: %d tables parked, want %d", name, len(tableFree), len(arrays))
		}
		for i := range len(tableFree) {
			w := <-tableFree
			if len(w) != 0 {
				t.Fatalf("%s: table %d parked at length %d", name, i, len(w))
			}
			for id, v := range grow(w, textvec.Sparse{IDs: []int32{int32(cap(w) - 1)}}) {
				if v != 0 {
					t.Fatalf("%s: parked table %d grows holding %v at ID %d", name, i, v, id)
				}
			}
			tableFree <- w
		}
		reused := NewModel(name)
		if got := trainScores(reused); !sameBits(got, want) {
			t.Errorf("%s: scores after reuse %v, with fresh tables %v", name, got, want)
		}
		for i, w := range tables(reused) {
			if !arrays[&w[0]] {
				t.Errorf("%s: table %d was allocated, not taken from the free list", name, i)
			}
		}
	}
}

// wrapper is a model Release does not know, around one it does.
type wrapper struct{ Model }

// TestReleaseLeavesForeignModels: Release of a wrapping model parks nothing
// and leaves the wrapped model's table in place.
func TestReleaseLeavesForeignModels(t *testing.T) {
	drainTables()
	inner := NewLogisticRegression()
	want := trainScores(inner)
	table := inner.w
	Release(wrapper{inner})
	if len(tableFree) != 0 {
		t.Errorf("%d tables parked for a wrapper", len(tableFree))
	}
	if len(inner.w) != len(table) || &inner.w[0] != &table[0] {
		t.Fatal("the wrapped model lost its table")
	}
	_, test := trainTestSplit()
	for k, ex := range test {
		if got := inner.Score(ex.X); math.Float64bits(got) != math.Float64bits(want[k]) {
			t.Errorf("held-out %d: score %v after Release of the wrapper, %v before", k, got, want[k])
		}
	}
}

// TestReleaseConcurrent: models trained and released from several goroutines
// at once, every family sharing the one free list, score exactly like models
// trained alone with fresh tables.
func TestReleaseConcurrent(t *testing.T) {
	defer drainTables()
	want := map[string][]float64{}
	for _, name := range ModelNames {
		drainTables()
		want[name] = trainScores(NewModel(name))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < 25; c++ {
				name := ModelNames[(g+c)%len(ModelNames)]
				m := NewModel(name)
				if got := trainScores(m); !sameBits(got, want[name]) {
					t.Errorf("goroutine %d, cycle %d, %s: scores %v, alone %v", g, c, name, got, want[name])
					return
				}
				Release(m)
			}
		}()
	}
	wg.Wait()
}
