// Package revisit implements the paper's stated future work (Sec. 6):
// extending the single-shot focused crawl with *incremental revisits*. Once
// a site has been crawled, new statistics datasets keep appearing on its
// hub pages; with a per-epoch revisit budget, a policy must decide which
// known pages to re-fetch to capture as many new targets as possible.
//
// The package provides a deterministic site-evolution simulation (hub pages
// gain targets at hidden Poisson rates derived from a generated site) and
// four policies: round-robin (the Heritrix-style baseline), yield-
// proportional, Thompson sampling on change observations (the winner in
// ref. [46]), and a sleeping-bandit policy that reuses the paper's agent by
// grouping pages per tag-path action — the exact combination Sec. 6
// proposes.
package revisit

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"sbcrawl/internal/bandit"
	"sbcrawl/internal/sitegen"
)

// PageState is one revisitable page in the simulation.
type PageState struct {
	// URL identifies the page.
	URL string
	// Group is the page's tag-path action from the initial crawl; pages of
	// one catalog share a group.
	Group int
	// rate is the hidden Poisson rate of new targets per epoch.
	rate float64
	// pending counts accumulated, not-yet-collected new targets.
	pending int
}

// Simulation evolves a set of pages over epochs and scores revisit policies.
type Simulation struct {
	pages []PageState
	rng   *rand.Rand
	// Generated counts all targets that have appeared so far.
	Generated int
	// Collected counts targets harvested by revisits.
	Collected int
}

// NewSimulationFromSite derives the evolution model from a generated site:
// every hub page becomes revisitable, with a change rate proportional to its
// catalog size (rich catalogs update more often) and its catalog run as the
// group.
func NewSimulationFromSite(site *sitegen.Site, seed int64) *Simulation {
	s := &Simulation{rng: rand.New(rand.NewSource(seed))}
	for _, p := range site.Pages() {
		if !p.IsHub {
			continue
		}
		s.pages = append(s.pages, PageState{
			URL:   p.URL,
			Group: p.TemplateID,
			rate:  0.05 * float64(len(p.DatasetLinks)),
		})
	}
	return s
}

// Pages returns the number of revisitable pages.
func (s *Simulation) Pages() int { return len(s.pages) }

// Tick advances one epoch: every page accrues new targets at its rate.
func (s *Simulation) Tick() {
	for i := range s.pages {
		n := poisson(s.rng, s.pages[i].rate)
		s.pages[i].pending += n
		s.Generated += n
	}
}

// Visit re-fetches page i, harvesting (and reporting) its pending targets.
func (s *Simulation) Visit(i int) int {
	got := s.pages[i].pending
	s.pages[i].pending = 0
	s.Collected += got
	return got
}

// Recall returns the fraction of generated targets collected so far.
func (s *Simulation) Recall() float64 {
	if s.Generated == 0 {
		return 1
	}
	return float64(s.Collected) / float64(s.Generated)
}

// Policy chooses which pages to revisit each epoch.
type Policy interface {
	// Name labels the policy in reports.
	Name() string
	// Select returns the indices of the pages to revisit this epoch,
	// at most budget of them.
	Select(sim *Simulation, budget int) []int
	// Feedback reports the harvest of each selected page.
	Feedback(pages []int, harvest []int)
}

// RoundRobin revisits pages in a fixed cycle — the incremental-Heritrix
// baseline (ref. [50]).
type RoundRobin struct{ next int }

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Select implements Policy.
func (p *RoundRobin) Select(sim *Simulation, budget int) []int {
	n := sim.Pages()
	if n == 0 {
		return nil
	}
	out := make([]int, 0, budget)
	for len(out) < budget {
		out = append(out, p.next%n)
		p.next++
	}
	return out
}

// Feedback implements Policy.
func (*RoundRobin) Feedback([]int, []int) {}

// Proportional revisits pages by estimated *pending* content: an estimated
// change rate λ̂ (total yield over observed epochs) times the staleness
// since the last visit — the change-rate-proportional policy of the
// freshness-crawling literature (Cho & Garcia-Molina). Unvisited pages get
// optimistic priority so every page's rate is estimated at least once.
type Proportional struct {
	epoch     int
	lastVisit []int
	yield     []float64
	visits    []int
	selecting []int // scratch
}

// Name implements Policy.
func (*Proportional) Name() string { return "proportional" }

// Select implements Policy.
func (p *Proportional) Select(sim *Simulation, budget int) []int {
	n := sim.Pages()
	p.grow(n)
	p.epoch++
	idx := p.selecting[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, i)
	}
	p.selecting = idx
	sort.SliceStable(idx, func(a, b int) bool {
		return p.score(idx[a]) > p.score(idx[b])
	})
	if budget > n {
		budget = n
	}
	out := make([]int, budget)
	copy(out, idx[:budget])
	return out
}

func (p *Proportional) score(i int) float64 {
	if p.visits[i] == 0 {
		return math.Inf(1) // optimism: estimate every rate once
	}
	// λ̂ = smoothed yield per epoch observed so far (the pseudo-count keeps
	// zero-yield pages revisitable once stale enough); pending ≈ λ̂ × staleness.
	rate := (p.yield[i] + 0.5) / float64(max(p.lastVisit[i], 1)+1)
	staleness := float64(p.epoch - p.lastVisit[i])
	return rate * staleness
}

// Feedback implements Policy.
func (p *Proportional) Feedback(pages []int, harvest []int) {
	for k, i := range pages {
		p.grow(i + 1)
		p.visits[i]++
		p.yield[i] += float64(harvest[k])
		p.lastVisit[i] = p.epoch
	}
}

func (p *Proportional) grow(n int) {
	for len(p.visits) < n {
		p.visits = append(p.visits, 0)
		p.yield = append(p.yield, 0)
		p.lastVisit = append(p.lastVisit, 0)
	}
}

// Thompson samples per-page change probabilities from Beta posteriors on
// "did the revisit find anything", the approach ref. [46] finds superior.
type Thompson struct {
	alpha, beta []float64
	rng         *rand.Rand
}

// NewThompson builds the policy.
func NewThompson(seed int64) *Thompson {
	return &Thompson{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (*Thompson) Name() string { return "thompson" }

// Select implements Policy.
func (p *Thompson) Select(sim *Simulation, budget int) []int {
	n := sim.Pages()
	p.grow(n)
	type draw struct {
		i int
		v float64
	}
	draws := make([]draw, n)
	for i := 0; i < n; i++ {
		draws[i] = draw{i, betaSample(p.rng, p.alpha[i], p.beta[i])}
	}
	sort.SliceStable(draws, func(a, b int) bool { return draws[a].v > draws[b].v })
	if budget > n {
		budget = n
	}
	out := make([]int, budget)
	for k := 0; k < budget; k++ {
		out[k] = draws[k].i
	}
	return out
}

// Feedback implements Policy.
func (p *Thompson) Feedback(pages []int, harvest []int) {
	for k, i := range pages {
		p.grow(i + 1)
		if harvest[k] > 0 {
			p.alpha[i]++
		} else {
			p.beta[i]++
		}
	}
}

func (p *Thompson) grow(n int) {
	for len(p.alpha) < n {
		p.alpha = append(p.alpha, 1)
		p.beta = append(p.beta, 1)
	}
}

// SleepingBandit reuses the paper's AUER agent for revisiting: pages are
// grouped by their tag-path action from the initial crawl, the bandit picks
// groups, and the stalest page of the chosen group is revisited — the
// Sec. 6 proposal of combining the RL-agent's knowledge with re-crawling.
type SleepingBandit struct {
	policy    *bandit.Sleeping
	lastVisit []int
	t         int
	groups    []int // the group of each page the last Select returned
}

// NewSleepingBandit builds the policy.
func NewSleepingBandit() *SleepingBandit {
	return &SleepingBandit{policy: bandit.NewSleeping()}
}

// Name implements Policy.
func (*SleepingBandit) Name() string { return "sleeping-bandit" }

// Select implements Policy.
func (p *SleepingBandit) Select(sim *Simulation, budget int) []int {
	n := sim.Pages()
	for len(p.lastVisit) < n {
		p.lastVisit = append(p.lastVisit, -1)
	}
	groups := map[int][]int{}
	for i, pg := range sim.pages {
		groups[pg.Group] = append(groups[pg.Group], i)
	}
	var awake []int
	for g := range groups {
		awake = append(awake, g)
	}
	sort.Ints(awake)
	var out []int
	p.groups = p.groups[:0]
	used := map[int]bool{}
	for len(out) < budget && len(out) < n {
		g, ok := p.policy.Select(awake, p.t+1)
		if !ok {
			break
		}
		// Stalest unused page of the group.
		best, bestVisit := -1, 1<<30
		for _, i := range groups[g] {
			if !used[i] && p.lastVisit[i] < bestVisit {
				best, bestVisit = i, p.lastVisit[i]
			}
		}
		if best < 0 {
			// Every page of the group is used this epoch: the group sleeps
			// until the next one, and the draw is not a play. Some group
			// still has a page, since fewer than n are used.
			awake = slices.DeleteFunc(awake, func(a int) bool { return a == g })
			continue
		}
		p.t++
		p.policy.RecordSelection(g)
		used[best] = true
		p.lastVisit[best] = p.t
		out = append(out, best)
		p.groups = append(p.groups, g)
	}
	return out
}

// Feedback implements Policy: each page's harvest rewards the group Select
// drew it from.
func (p *SleepingBandit) Feedback(pages []int, harvest []int) {
	for k := range pages {
		p.policy.RecordReward(p.groups[k], float64(harvest[k]))
	}
}

// Run executes a policy over the simulation for the given number of epochs
// and per-epoch budget, returning the final recall.
func Run(sim *Simulation, p Policy, epochs, budget int) float64 {
	for e := 0; e < epochs; e++ {
		sim.Tick()
		pages := p.Select(sim, budget)
		harvest := make([]int, len(pages))
		for k, i := range pages {
			harvest[k] = sim.Visit(i)
		}
		p.Feedback(pages, harvest)
	}
	return sim.Recall()
}

func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// betaSample draws from Beta(a, b) via two Gamma draws (Marsaglia–Tsang).
func betaSample(rng *rand.Rand, a, b float64) float64 {
	x := gammaSample(rng, a)
	y := gammaSample(rng, b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^(1/a).
		u := rng.Float64()
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
