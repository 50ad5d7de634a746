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

func TestAutoTunerSlowStartRamp(t *testing.T) {
	tu := NewAutoTuner()
	if tu.Window() != autoInitialWindow {
		t.Fatalf("initial window = %d, want %d", tu.Window(), autoInitialWindow)
	}
	// Perfect hits: the window must double per sample up to the cap.
	st := PrefetchStats{}
	want := autoInitialWindow
	for i := 0; i < 10; i++ {
		st.Hits += autoSampleEvery
		st.Launched += autoSampleEvery
		got := observeSteps(tu, st)
		want *= 2
		if want > AutoMaxWindow {
			want = AutoMaxWindow
		}
		if got != want {
			t.Fatalf("sample %d: window = %d, want %d", i, got, want)
		}
	}
}

func TestAutoTunerNarrowsOnMisses(t *testing.T) {
	tu := NewAutoTuner()
	// Ramp once, then an all-miss sample must halve and end slow start.
	st := PrefetchStats{Hits: autoSampleEvery, Launched: autoSampleEvery}
	observeSteps(tu, st) // 4 → 8
	st.Misses += autoSampleEvery
	if got := observeSteps(tu, st); got != 4 {
		t.Fatalf("window after all-miss sample = %d, want 4", got)
	}
	// Hits again: additive now, not doubling (slow start is over).
	st.Hits += autoSampleEvery
	if got := observeSteps(tu, st); got != 6 {
		t.Fatalf("window after recovery = %d, want 6 (additive)", got)
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
