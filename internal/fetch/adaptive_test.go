package fetch

import "testing"

// observeSteps feeds the tuner enough Observes to cross one sample boundary
// with the given cumulative stats.
func observeSteps(t *AutoTuner, st PrefetchStats) int {
	w := t.Window()
	for i := 0; i < autoSampleEvery; i++ {
		w = t.Observe(st)
	}
	return w
}

// TestAutoTunerSlowStartRamp pins the ramp: a window starts at 16 and
// doubles per sample of perfect hits up to the ceiling of 256 — the
// trajectory four partitions of the 4-to-64 ramp once made.
func TestAutoTunerSlowStartRamp(t *testing.T) {
	tu := NewAutoTuner()
	if tu.Window() != 16 {
		t.Fatalf("initial window = %d, want 16", tu.Window())
	}
	st := PrefetchStats{}
	for i, want := range []int{32, 64, 128, 256, 256, 256} {
		st.Hits += autoSampleEvery
		st.Launched += autoSampleEvery
		if got := observeSteps(tu, st); got != want {
			t.Fatalf("sample %d: window = %d, want %d", i, got, want)
		}
	}
}

// TestAutoTunerNarrowsOnMisses: a miss-heavy sample halves the window and
// ends slow start, whatever the window; growth is then additive, by 8.
func TestAutoTunerNarrowsOnMisses(t *testing.T) {
	tu := NewAutoTuner()
	// Ramp once, then an all-miss sample must halve and end slow start.
	st := PrefetchStats{Hits: autoSampleEvery, Launched: autoSampleEvery}
	observeSteps(tu, st) // 16 → 32
	st.Misses += autoSampleEvery
	if got := observeSteps(tu, st); got != 16 {
		t.Fatalf("window after all-miss sample = %d, want 16", got)
	}
	// Hits again: additive now, not doubling (slow start is over).
	st.Hits += autoSampleEvery
	if got := observeSteps(tu, st); got != 24 {
		t.Fatalf("window after recovery = %d, want 24 (additive)", got)
	}
	// A mostly-missing sample (one hit in four, below the 0.3 threshold)
	// halves again, from the wide window as from a narrow one.
	st.Hits++
	st.Misses += autoSampleEvery - 1
	if got := observeSteps(tu, st); got != 12 {
		t.Fatalf("window after a miss-heavy sample = %d, want 12", got)
	}
}

func TestAutoTunerNarrowsOnEvictionChurn(t *testing.T) {
	tu := NewAutoTuner()
	// High hit rate but eviction-heavy: most launches dropped unconsumed.
	st := PrefetchStats{Hits: autoSampleEvery, Launched: 10, Evicted: 8}
	if got := observeSteps(tu, st); got != autoInitialWindow/2 {
		t.Fatalf("window = %d, want %d (eviction churn must narrow)", got, autoInitialWindow/2)
	}
}

func TestAutoTunerClampsToMin(t *testing.T) {
	tu := NewAutoTuner()
	st := PrefetchStats{}
	for i := 0; i < 10; i++ {
		st.Misses += autoSampleEvery
		if got := observeSteps(tu, st); got < autoMinWindow {
			t.Fatalf("window = %d below the minimum", got)
		}
	}
	if tu.Window() != autoMinWindow {
		t.Fatalf("window = %d, want the floor %d", tu.Window(), autoMinWindow)
	}
}

func TestAutoTunerHoldsBetweenSamplesAndOnIdle(t *testing.T) {
	tu := NewAutoTuner()
	st := PrefetchStats{Hits: 100, Launched: 100}
	// Mid-sample Observes never change the window.
	for i := 0; i < autoSampleEvery-1; i++ {
		if got := tu.Observe(st); got != autoInitialWindow {
			t.Fatalf("step %d: window = %d, want unchanged %d", i, got, autoInitialWindow)
		}
	}
	tu.Observe(st) // sample boundary: doubles
	// A sample with no demand traffic holds whatever the window is.
	w := tu.Window()
	if got := observeSteps(tu, st); got != w {
		t.Fatalf("idle sample moved the window %d → %d", w, got)
	}
	// Intermediate hit rate (between the thresholds) also holds.
	st2 := st
	st2.Hits += autoSampleEvery / 2
	st2.Misses += autoSampleEvery / 2
	if got := observeSteps(tu, st2); got != w {
		t.Fatalf("mid-rate sample moved the window %d → %d", w, got)
	}
}
