package bandit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSleepingPrefersUnexploredArm(t *testing.T) {
	p := NewSleeping()
	p.EnsureArm(1)
	// Arm 0 was played with a decent reward; arm 1 never played. With t
	// large the exploration bonus of the fresh arm must dominate.
	p.RecordSelection(0)
	p.RecordReward(0, 5)
	arm, ok := p.Select([]int{0, 1}, 100)
	if !ok || arm != 1 {
		t.Errorf("Select = %d ok=%v, want the unexplored arm 1", arm, ok)
	}
}

func TestSleepingExploitsAfterConvergence(t *testing.T) {
	p := NewSleeping()
	// Arm 0 consistently pays 10, arm 1 pays 0; after many plays of both
	// the high arm must win.
	for i := 0; i < 200; i++ {
		p.RecordSelection(0)
		p.RecordReward(0, 10)
		p.RecordSelection(1)
		p.RecordReward(1, 0)
	}
	arm, ok := p.Select([]int{0, 1}, 400)
	if !ok || arm != 0 {
		t.Errorf("Select = %d, want exploitation of arm 0", arm)
	}
}

func TestSleepingMasksUnavailableArms(t *testing.T) {
	p := NewSleeping()
	for i := 0; i < 50; i++ {
		p.RecordSelection(0)
		p.RecordReward(0, 100)
	}
	// Arm 0 is by far the best, but it sleeps: only arms 1, 2 are awake.
	arm, ok := p.Select([]int{1, 2}, 60)
	if !ok {
		t.Fatal("no arm selected")
	}
	if arm == 0 {
		t.Error("a sleeping arm must never be selected")
	}
}

func TestSelectEmptyAvailable(t *testing.T) {
	p := NewSleeping()
	if _, ok := p.Select(nil, 10); ok {
		t.Error("Select with no available arms must report !ok")
	}
}

func TestRunningMeanMatchesAlgorithm4(t *testing.T) {
	// Algorithm 4: R̄ ← R̄ + (r − R̄)/N with N the selection count.
	p := NewSleeping()
	rewards := []float64{3, 0, 6, 3}
	for _, r := range rewards {
		p.RecordSelection(0)
		p.RecordReward(0, r)
	}
	if got, want := p.MeanReward(0), 3.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if p.Count(0) != 4 {
		t.Errorf("count = %d, want 4", p.Count(0))
	}
}

func TestRewardBeforeSelectionDoesNotPanic(t *testing.T) {
	p := NewSleeping()
	p.RecordReward(3, 7) // N=0 treated as 1
	if got := p.MeanReward(3); got != 7 {
		t.Errorf("mean = %v, want 7", got)
	}
}

func TestScoreFormula(t *testing.T) {
	p := NewSleepingAlpha(2)
	p.RecordSelection(0)
	p.RecordReward(0, 4)
	t0 := 10
	want := 4 + 2*math.Sqrt(math.Log(10)/(1+DefaultEpsilon))
	if got := p.Score(0, t0); math.Abs(got-want) > 1e-9 {
		t.Errorf("Score = %v, want %v", got, want)
	}
}

func TestScoreAtTimeZeroAndOne(t *testing.T) {
	p := NewSleeping()
	p.EnsureArm(0)
	for _, tt := range []int{0, 1} {
		if s := p.Score(0, tt); math.IsNaN(s) || math.IsInf(s, 0) {
			t.Errorf("Score at t=%d = %v, must be finite", tt, s)
		}
	}
}

func TestSleepingDeterminism(t *testing.T) {
	run := func() []int {
		p := NewSleeping()
		var picks []int
		for step := 1; step <= 50; step++ {
			arm, _ := p.Select([]int{0, 1, 2}, step)
			p.RecordSelection(arm)
			p.RecordReward(arm, float64(arm)) // arm 2 pays best
			picks = append(picks, arm)
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSleepingLearnsBestArm(t *testing.T) {
	// A regret-style check: with arm rewards 0, 1, 10 the agent should
	// allocate most pulls to arm 2.
	p := NewSleeping()
	pulls := map[int]int{}
	means := []float64{0, 1, 10}
	for step := 1; step <= 2000; step++ {
		arm, _ := p.Select([]int{0, 1, 2}, step)
		p.RecordSelection(arm)
		p.RecordReward(arm, means[arm])
		pulls[arm]++
	}
	if pulls[2] < 1200 {
		t.Errorf("best arm pulled only %d/2000 times: %v", pulls[2], pulls)
	}
}

func TestEpsilonGreedy(t *testing.T) {
	p := NewEpsilonGreedy(0.1, 1)
	for i := 0; i < 100; i++ {
		p.RecordSelection(0)
		p.RecordReward(0, 10)
		p.RecordSelection(1)
		p.RecordReward(1, 0)
	}
	wins := 0
	for i := 0; i < 1000; i++ {
		arm, ok := p.Select([]int{0, 1}, i+200)
		if !ok {
			t.Fatal("no selection")
		}
		if arm == 0 {
			wins++
		}
	}
	// ~95% of selections should exploit arm 0 (ε/2 of them explore arm 1).
	if wins < 850 {
		t.Errorf("greedy arm selected %d/1000 times, want ≥850", wins)
	}
	if _, ok := p.Select(nil, 5); ok {
		t.Error("empty available must report !ok")
	}
}

func TestThompsonConvergesToBestArm(t *testing.T) {
	p := NewThompson(1, 42)
	rng := rand.New(rand.NewSource(7))
	pulls := map[int]int{}
	for step := 1; step <= 3000; step++ {
		arm, _ := p.Select([]int{0, 1}, step)
		p.RecordSelection(arm)
		r := 0.0
		if arm == 1 {
			r = 5 + rng.NormFloat64()
		}
		p.RecordReward(arm, r)
		pulls[arm]++
	}
	if pulls[1] < 2000 {
		t.Errorf("Thompson pulled best arm only %d/3000 times", pulls[1])
	}
	if _, ok := p.Select(nil, 5); ok {
		t.Error("empty available must report !ok")
	}
}

func TestUCB1SharesMechanics(t *testing.T) {
	p := NewUCB1()
	p.RecordSelection(0)
	p.RecordReward(0, 2)
	arm, ok := p.Select([]int{0}, 5)
	if !ok || arm != 0 {
		t.Errorf("UCB1 Select = %d ok=%v", arm, ok)
	}
}

func TestUCB1WastesPicksOnSleepingArms(t *testing.T) {
	p := NewUCB1()
	// Arm 0 is extremely attractive but asleep; arms 1, 2 are awake,
	// already explored, and unrewarding — so arm 0 tops the UCB score.
	for i := 0; i < 5; i++ {
		p.RecordSelection(0)
		p.RecordReward(0, 100)
		p.RecordSelection(1)
		p.RecordReward(1, 0)
		p.RecordSelection(2)
		p.RecordReward(2, 0)
	}
	before := p.Count(0)
	arm, ok := p.Select([]int{1, 2}, 10)
	if !ok {
		t.Fatal("no selection")
	}
	if arm == 0 {
		t.Fatal("returned arm must be awake")
	}
	if p.Count(0) != before+1 {
		t.Errorf("the wasted pick on the sleeping arm must count: %d → %d",
			before, p.Count(0))
	}
}

func TestUCB1EmptyAvailable(t *testing.T) {
	p := NewUCB1()
	if _, ok := p.Select(nil, 3); ok {
		t.Error("empty available must report !ok")
	}
}

// Property: Select always returns a member of available.
func TestSelectReturnsAvailableProperty(t *testing.T) {
	f := func(armsRaw []uint8, step uint16, rewardsSeed int64) bool {
		if len(armsRaw) == 0 {
			return true
		}
		available := make([]int, 0, len(armsRaw))
		seen := map[int]bool{}
		for _, a := range armsRaw {
			arm := int(a % 32)
			if !seen[arm] {
				available = append(available, arm)
				seen[arm] = true
			}
		}
		p := NewSleeping()
		rng := rand.New(rand.NewSource(rewardsSeed))
		for i := 0; i < 10; i++ {
			arm := available[rng.Intn(len(available))]
			p.RecordSelection(arm)
			p.RecordReward(arm, rng.Float64()*10)
		}
		got, ok := p.Select(available, int(step)+1)
		return ok && seen[got]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the running mean always lies within [min, max] of the observed
// rewards.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(rewards []float64) bool {
		if len(rewards) == 0 {
			return true
		}
		p := NewSleeping()
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rewards {
			// Crawler rewards are small target counts; skip degenerate
			// inputs whose differences overflow float64 arithmetic.
			if math.IsNaN(r) || math.Abs(r) > 1e12 {
				return true
			}
			p.RecordSelection(0)
			p.RecordReward(0, r)
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		m := p.MeanReward(0)
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
