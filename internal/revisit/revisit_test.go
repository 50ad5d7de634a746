package revisit

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"sbcrawl/internal/sitegen"
)

// NewSimulation builds a simulation over explicit page rates.
func NewSimulation(rates []float64, groups []int, seed int64) *Simulation {
	s := &Simulation{rng: rand.New(rand.NewSource(seed))}
	for i, r := range rates {
		g := 0
		if i < len(groups) {
			g = groups[i]
		}
		s.pages = append(s.pages, PageState{
			URL: "page-" + strconv.Itoa(i), Group: g, rate: r,
		})
	}
	return s
}

// skewedSim: one hot page (rate 2/epoch), many cold ones (0.01/epoch).
func skewedSim(seed int64) *Simulation {
	rates := make([]float64, 40)
	groups := make([]int, 40)
	for i := range rates {
		rates[i] = 0.01
		groups[i] = i / 5
	}
	rates[7] = 2.0
	return NewSimulation(rates, groups, seed)
}

func TestTickAccumulatesAndVisitHarvests(t *testing.T) {
	sim := NewSimulation([]float64{5}, []int{0}, 1)
	sim.Tick()
	if sim.Generated == 0 {
		t.Fatal("rate-5 page generated nothing in an epoch")
	}
	got := sim.Visit(0)
	if got != sim.Generated {
		t.Errorf("harvest %d != generated %d on single page", got, sim.Generated)
	}
	if again := sim.Visit(0); again != 0 {
		t.Errorf("second visit without a tick harvested %d", again)
	}
	if sim.Recall() != 1 {
		t.Errorf("recall = %v after harvesting everything", sim.Recall())
	}
}

func TestRecallEmptySimulation(t *testing.T) {
	sim := NewSimulation(nil, nil, 1)
	if sim.Recall() != 1 {
		t.Error("empty simulation has trivially perfect recall")
	}
	sim.Tick() // must not panic
}

func TestRoundRobinCyclesAllPages(t *testing.T) {
	sim := skewedSim(3)
	p := &RoundRobin{}
	seen := map[int]bool{}
	for e := 0; e < 10; e++ {
		for _, i := range p.Select(sim, 4) {
			seen[i] = true
		}
	}
	if len(seen) != sim.Pages() {
		t.Errorf("round-robin visited %d/%d pages in 10 epochs × 4", len(seen), sim.Pages())
	}
}

func TestAdaptivePoliciesBeatRoundRobin(t *testing.T) {
	// With one hot page and a budget of 2/epoch, adaptive policies should
	// visit the hot page almost every epoch; round-robin visits it once
	// every 20 epochs and leaves targets uncollected.
	const epochs, budget = 200, 2
	rr := Run(skewedSim(11), &RoundRobin{}, epochs, budget)
	prop := Run(skewedSim(11), &Proportional{}, epochs, budget)
	th := Run(skewedSim(11), NewThompson(5), epochs, budget)
	sb := Run(skewedSim(11), NewSleepingBandit(), epochs, budget)
	t.Logf("recall: rr=%.3f prop=%.3f thompson=%.3f sb=%.3f", rr, prop, th, sb)
	for name, v := range map[string]float64{"proportional": prop, "thompson": th, "sleeping-bandit": sb} {
		if v <= rr {
			t.Errorf("%s recall %.3f must beat round-robin %.3f", name, v, rr)
		}
	}
	// Note: recall here is "collected so far / generated so far", so even
	// perfect policies sit below 1 (pending targets at the horizon).
	if prop < 0.5 {
		t.Errorf("proportional recall %.3f is implausibly low", prop)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"round-robin":     &RoundRobin{},
		"proportional":    &Proportional{},
		"thompson":        NewThompson(1),
		"sleeping-bandit": NewSleepingBandit(),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func TestSelectRespectsBudget(t *testing.T) {
	sim := skewedSim(7)
	sim.Tick()
	for _, p := range []Policy{&RoundRobin{}, &Proportional{}, NewThompson(2), NewSleepingBandit()} {
		sel := p.Select(sim, 3)
		if len(sel) > 3 {
			t.Errorf("%s selected %d pages, budget 3", p.Name(), len(sel))
		}
		for _, i := range sel {
			if i < 0 || i >= sim.Pages() {
				t.Errorf("%s selected out-of-range page %d", p.Name(), i)
			}
		}
	}
}

func TestSleepingBanditSelectsDistinctPages(t *testing.T) {
	sim := skewedSim(9)
	sim.Tick()
	p := NewSleepingBandit()
	sel := p.Select(sim, 10)
	seen := map[int]bool{}
	for _, i := range sel {
		if seen[i] {
			t.Fatalf("page %d selected twice in one epoch", i)
		}
		seen[i] = true
	}
}

// TestSleepingBanditSpendsItsBudget: a group with fewer pages than the
// budget sleeps once its pages are used, so the epoch goes on in the other
// groups instead of ending short. Here the one-page group 0 carries all the
// reward, so AUER draws it again after its only page is taken.
func TestSleepingBanditSpendsItsBudget(t *testing.T) {
	sim := NewSimulation([]float64{5, 0.01, 0.01, 0.01, 0.01}, []int{0, 1, 1, 1, 1}, 3)
	p := NewSleepingBandit()
	for e := 0; e < 20; e++ {
		sim.Tick()
		pages := p.Select(sim, 3)
		if len(pages) != 3 {
			t.Fatalf("epoch %d: selected %v, want 3 pages of 5", e, pages)
		}
		harvest := make([]int, len(pages))
		for k, i := range pages {
			harvest[k] = sim.Visit(i)
		}
		p.Feedback(pages, harvest)
	}
}

func TestNewSimulationFromSite(t *testing.T) {
	profile, _ := sitegen.ProfileByCode("nc")
	site := sitegen.Generate(sitegen.Config{Profile: profile, Scale: 0.004, Seed: 5})
	sim := NewSimulationFromSite(site, 3)
	if sim.Pages() == 0 {
		t.Fatal("no revisitable hub pages derived from the site")
	}
	// Rates must be positive and correlated with catalog sizes.
	var withRate int
	for _, pg := range sim.pages {
		if pg.rate > 0 {
			withRate++
		}
	}
	if withRate == 0 {
		t.Error("no page has a positive change rate")
	}
	recall := Run(sim, NewThompson(1), 50, 3)
	if recall <= 0 {
		t.Error("site-derived simulation collected nothing")
	}
}

func TestBetaSampleRange(t *testing.T) {
	f := func(aRaw, bRaw uint8, seed int64) bool {
		a := float64(aRaw%50) + 0.5
		b := float64(bRaw%50) + 0.5
		v := betaSample(rand.New(rand.NewSource(seed)), a, b)
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: conservation — collected never exceeds generated, and recall
// stays in [0, 1] through arbitrary visit/tick interleavings.
func TestConservationProperty(t *testing.T) {
	f := func(ops []bool, seed int64) bool {
		sim := skewedSim(seed)
		k := 0
		for _, isTick := range ops {
			if isTick {
				sim.Tick()
			} else {
				sim.Visit(k % sim.Pages())
				k++
			}
			if sim.Collected > sim.Generated {
				return false
			}
			if r := sim.Recall(); r < 0 || r > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
