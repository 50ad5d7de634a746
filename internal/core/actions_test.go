package core

import (
	"testing"
	"testing/quick"
)

// Realistic tag-path lengths (≈10 tokens, like the appendix examples): one
// changed token keeps the bigram cosine above θ=0.75, so variants merge.
func pathA() []string {
	return []string{"html", "body", "div#page", "main", "div.region", "article",
		"section.downloads", "ul.datasets", "li", "a"}
}

func pathB() []string {
	return []string{"html", "body", "header", "nav.menu", "div.inner", "div.cols",
		"ul.menu", "li.item", "span", "a"}
}

func TestActionForMergesSimilarPaths(t *testing.T) {
	ai := NewActionIndex(ActionIndexConfig{Theta: 0.75, Seed: 1})
	a1 := ai.ActionFor(pathA())
	// A near-identical path (one class changed at the leaf) must join.
	variant := append([]string{}, pathA()...)
	variant[len(variant)-1] = "a.dl"
	a2 := ai.ActionFor(variant)
	if a1 != a2 {
		t.Errorf("similar paths split into actions %d and %d", a1, a2)
	}
	if ai.PathCount(a1) != 2 {
		t.Errorf("PathCount = %d, want 2 merged paths", ai.PathCount(a1))
	}
	// A structurally different path must found a new action.
	b := ai.ActionFor(pathB())
	if b == a1 {
		t.Error("dissimilar paths must not merge")
	}
	if ai.NumActions() != 2 {
		t.Errorf("NumActions = %d, want 2", ai.NumActions())
	}
}

func TestThetaExtremes(t *testing.T) {
	// θ=0 groups everything into a single action (the agent cannot learn);
	// θ→1 creates an action per distinct path (the agent only explores).
	loose := NewActionIndex(ActionIndexConfig{Theta: 1e-9, Seed: 1})
	strict := NewActionIndex(ActionIndexConfig{Theta: 0.999, Seed: 1})
	paths := [][]string{
		pathA(), pathB(),
		{"html", "body", "main", "p", "a"},
		{"html", "body", "footer", "a.legal"},
	}
	for _, p := range paths {
		loose.ActionFor(p)
		strict.ActionFor(p)
	}
	if loose.NumActions() != 1 {
		t.Errorf("θ≈0: %d actions, want 1", loose.NumActions())
	}
	if strict.NumActions() != len(paths) {
		t.Errorf("θ≈1: %d actions, want %d", strict.NumActions(), len(paths))
	}
}

func TestCentroidDriftKeepsMatching(t *testing.T) {
	// Feeding many near-duplicates of one path must keep matching the same
	// action while its centroid drifts.
	ai := NewActionIndex(ActionIndexConfig{Theta: 0.7, Seed: 3})
	first := ai.ActionFor(pathA())
	for i := 0; i < 50; i++ {
		v := append([]string{}, pathA()...)
		if i%2 == 0 {
			v[2] = "div#main.extra"
		}
		if got := ai.ActionFor(v); got != first {
			t.Fatalf("iteration %d: path switched to action %d", i, got)
		}
	}
	if ai.PathCount(first) != 51 {
		t.Errorf("PathCount = %d, want 51", ai.PathCount(first))
	}
}

func TestMatchDoesNotCreateActions(t *testing.T) {
	ai := NewActionIndex(ActionIndexConfig{Theta: 0.75, Seed: 1})
	ai.ActionFor(pathA())
	n := ai.NumActions()
	if _, ok := ai.Match(pathB()); ok {
		t.Error("dissimilar path must not match")
	}
	if ai.NumActions() != n {
		t.Error("Match must never create actions")
	}
	if a, ok := ai.Match(pathA()); !ok || a != 0 {
		t.Errorf("Match(pathA) = %d,%v", a, ok)
	}
	if ai.PathCount(0) != 1 {
		t.Error("Match must not move centroids")
	}
}

// Property: ActionFor is total and returns IDs within [0, NumActions).
func TestActionForRangeProperty(t *testing.T) {
	ai := NewActionIndex(ActionIndexConfig{Theta: 0.75, Seed: 5})
	f := func(tokens []uint8) bool {
		path := make([]string, 0, len(tokens)%8+1)
		names := []string{"div", "ul", "li", "a", "span.x", "p#y", "nav", "main"}
		for _, tk := range tokens {
			path = append(path, names[int(tk)%len(names)])
		}
		if len(path) == 0 {
			path = []string{"a"}
		}
		a := ai.ActionFor(path)
		return a >= 0 && a < ai.NumActions()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEarlyStopperTriggersOnFlatSlope(t *testing.T) {
	s := newEarlyStopper(EarlyStopConfig{Nu: 5, Epsilon: 0.2, Gamma: 0.5, Kappa: 2})
	targets := 0
	fired := false
	for step := 1; step <= 100; step++ {
		if step <= 30 {
			targets += 2 // strong discovery: slope 2 per step
		}
		if s.Observe(step, targets) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("stopper never fired on a flattened curve")
	}
	if s.StopStep <= 30 {
		t.Errorf("fired at step %d, during active discovery", s.StopStep)
	}
}

func TestEarlyStopperHoldsDuringSteadyDiscovery(t *testing.T) {
	s := newEarlyStopper(EarlyStopConfig{Nu: 5, Epsilon: 0.2, Gamma: 0.5, Kappa: 2})
	targets := 0
	for step := 1; step <= 200; step++ {
		targets += 1 // slope 1 ≫ ε forever
		if s.Observe(step, targets) {
			t.Fatalf("fired at step %d despite steady discovery", step)
		}
	}
}

func TestEarlyStopperDisabledByZeroNu(t *testing.T) {
	s := newEarlyStopper(EarlyStopConfig{})
	for step := 1; step <= 100; step++ {
		if s.Observe(step, 0) {
			t.Fatal("zero-valued config must never fire")
		}
	}
}

func TestScaledEarlyStopRanges(t *testing.T) {
	big := ScaledEarlyStop(1_000_000)
	if big != DefaultEarlyStop() {
		t.Errorf("full-size sites get the paper's parameters, got %+v", big)
	}
	small := ScaledEarlyStop(500)
	if small.Nu != 10 {
		t.Errorf("tiny site ν = %d, want floor 10", small.Nu)
	}
	mid := ScaledEarlyStop(50_000)
	if mid.Nu != 500 {
		t.Errorf("50k-page site ν = %d, want 500", mid.Nu)
	}
}

func TestEarlyStopperConsecutiveRequirement(t *testing.T) {
	// A single recovery window must reset the low counter.
	s := newEarlyStopper(EarlyStopConfig{Nu: 1, Epsilon: 0.5, Gamma: 1, Kappa: 3})
	targets := 0
	pattern := []int{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1} // never 3 flat in a row
	for step, d := range pattern {
		targets += d
		if s.Observe(step+1, targets) {
			t.Fatalf("fired at step %d; flat streak never reached κ", step+1)
		}
	}
}
