// Package bandit implements the multi-armed bandit policies of Section 3.2
// of the paper and the alternatives its extended version discusses. The
// crawler's agent is the Awake Upper-Estimated Reward (AUER) sleeping bandit
// of Kleinberg et al. (ref. [34]); UCB1, ε-greedy and Gaussian Thompson
// sampling are provided for ablations.
//
// Arms are created dynamically (actions form during the crawl), and at each
// step only a subset of arms is available — an arm "sleeps" when all its
// frontier links have been visited.
package bandit

import (
	"math"
	"math/rand"
)

// DefaultAlpha is 2√2, the UCB/AUER exploration coefficient the paper keeps
// even though optimality is not guaranteed for unbounded rewards (Sec. 3.2).
var DefaultAlpha = 2 * math.Sqrt2

// DefaultEpsilon is the ε > 0 preventing division by zero in the exploration
// term when an arm has never been selected.
const DefaultEpsilon = 1e-6

// Policy is a bandit agent over dynamically created arms. Implementations
// are deterministic unless documented otherwise; the paper requires crawler
// stability across runs.
type Policy interface {
	// EnsureArm grows the arm set so that the given arm index exists.
	EnsureArm(arm int)
	// Select returns the chosen arm among the available (awake) ones at
	// step t, or ok=false when none is available.
	Select(available []int, t int) (arm int, ok bool)
	// RecordSelection notes that the arm was just played (N(a) += 1).
	RecordSelection(arm int)
	// RecordReward folds a reward into the arm's running mean, exactly as
	// Algorithm 4 does: R̄ ← R̄ + (r − R̄)/N.
	RecordReward(arm int, reward float64)
	// MeanReward returns the arm's current mean reward R̄.
	MeanReward(arm int) float64
	// Count returns how many times the arm has been selected.
	Count(arm int) int
}

type armStat struct {
	n    int
	mean float64
}

type stats struct {
	arms []armStat
}

func (s *stats) EnsureArm(arm int) {
	for len(s.arms) <= arm {
		s.arms = append(s.arms, armStat{})
	}
}

func (s *stats) RecordSelection(arm int) {
	s.EnsureArm(arm)
	s.arms[arm].n++
}

func (s *stats) RecordReward(arm int, reward float64) {
	s.EnsureArm(arm)
	a := &s.arms[arm]
	n := a.n
	if n == 0 {
		n = 1
	}
	a.mean += (reward - a.mean) / float64(n)
}

func (s *stats) MeanReward(arm int) float64 {
	if arm >= len(s.arms) {
		return 0
	}
	return s.arms[arm].mean
}

func (s *stats) Count(arm int) int {
	if arm >= len(s.arms) {
		return 0
	}
	return s.arms[arm].n
}

func (s *stats) NumArms() int { return len(s.arms) }

// Sleeping is the AUER sleeping-bandit policy:
//
//	s(a) = 1_a(t) · (R̄_a + α·√(log t / (N(a)+ε)))
//
// The availability indicator is realized by scoring only the arms in the
// available slice; argmax ties break towards the lowest arm index, keeping
// the policy fully deterministic.
type Sleeping struct {
	stats
	// Alpha is the exploration–exploitation coefficient α.
	Alpha float64
	// Eps is the ε in the denominator.
	Eps float64
}

// NewSleeping returns an AUER policy with the paper's defaults (α=2√2).
func NewSleeping() *Sleeping { return &Sleeping{Alpha: DefaultAlpha, Eps: DefaultEpsilon} }

// NewSleepingAlpha returns an AUER policy with a custom α (hyper-parameter
// study of Table 4).
func NewSleepingAlpha(alpha float64) *Sleeping {
	return &Sleeping{Alpha: alpha, Eps: DefaultEpsilon}
}

// Score computes the arm's AUER score at step t (for an awake arm).
func (p *Sleeping) Score(arm, t int) float64 {
	logT := 0.0
	if t > 1 {
		logT = math.Log(float64(t))
	}
	return p.MeanReward(arm) + p.Alpha*math.Sqrt(logT/(float64(p.Count(arm))+p.Eps))
}

// Select implements Policy.
func (p *Sleeping) Select(available []int, t int) (int, bool) {
	best, bestScore, found := 0, math.Inf(-1), false
	for _, a := range available {
		p.EnsureArm(a)
		s := p.Score(a, t)
		if !found || s > bestScore || (s == bestScore && a < best) {
			best, bestScore, found = a, s, true
		}
	}
	return best, found
}

// UCB1 is the classic UCB policy of Auer et al. (ref. [3]) *without* the
// sleeping adaptation: it scores every arm ever created, unaware that some
// have no remaining links. When its top choice is asleep the pick is wasted
// — the selection still counts into N(a), shrinking the arm's exploration
// bonus without any reward observation — and the policy retries. This is
// the behaviour AUER's availability indicator repairs, and the ablation
// quantifies the repair.
type UCB1 struct{ Sleeping }

// NewUCB1 returns a UCB1 policy with α=2√2.
func NewUCB1() *UCB1 {
	return &UCB1{Sleeping{Alpha: DefaultAlpha, Eps: DefaultEpsilon}}
}

// Select implements Policy without availability masking.
func (p *UCB1) Select(available []int, t int) (int, bool) {
	if len(available) == 0 {
		return 0, false
	}
	awake := make(map[int]bool, len(available))
	for _, a := range available {
		p.EnsureArm(a)
		awake[a] = true
	}
	tried := make(map[int]bool)
	for {
		best, bestScore, found := 0, math.Inf(-1), false
		for a := 0; a < p.NumArms(); a++ {
			if tried[a] {
				continue
			}
			s := p.Score(a, t)
			if !found || s > bestScore || (s == bestScore && a < best) {
				best, bestScore, found = a, s, true
			}
		}
		if !found {
			// Everything tried and asleep; fall back to any awake arm.
			return available[0], true
		}
		if awake[best] {
			return best, true
		}
		// Wasted pick on a sleeping arm: the stats absorb it.
		p.RecordSelection(best)
		tried[best] = true
	}
}

// EpsilonGreedy selects a uniformly random available arm with probability
// Epsilon and the best empirical-mean arm otherwise. It is stochastic, which
// is one reason the paper rejects it (crawler stability).
type EpsilonGreedy struct {
	stats
	Epsilon float64
	rng     *rand.Rand
}

// NewEpsilonGreedy builds an ε-greedy policy with the given exploration rate
// and seed.
func NewEpsilonGreedy(epsilon float64, seed int64) *EpsilonGreedy {
	return &EpsilonGreedy{Epsilon: epsilon, rng: rand.New(rand.NewSource(seed))}
}

// Select implements Policy.
func (p *EpsilonGreedy) Select(available []int, t int) (int, bool) {
	if len(available) == 0 {
		return 0, false
	}
	for _, a := range available {
		p.EnsureArm(a)
	}
	if p.rng.Float64() < p.Epsilon {
		return available[p.rng.Intn(len(available))], true
	}
	best, bestMean := available[0], math.Inf(-1)
	for _, a := range available {
		if m := p.MeanReward(a); m > bestMean {
			best, bestMean = a, m
		}
	}
	return best, true
}

// Thompson is Gaussian Thompson sampling: each available arm draws from
// N(R̄_a, σ²/(N(a)+1)) and the best draw wins. The extended version discusses
// (and rejects) Bayesian bandits for this task; we keep it for ablation.
type Thompson struct {
	stats
	// Sigma scales the sampling noise; larger values explore more.
	Sigma float64
	rng   *rand.Rand
}

// NewThompson builds a Thompson-sampling policy.
func NewThompson(sigma float64, seed int64) *Thompson {
	if sigma <= 0 {
		sigma = 1
	}
	return &Thompson{Sigma: sigma, rng: rand.New(rand.NewSource(seed))}
}

// Select implements Policy.
func (p *Thompson) Select(available []int, t int) (int, bool) {
	if len(available) == 0 {
		return 0, false
	}
	best, bestDraw, found := 0, math.Inf(-1), false
	for _, a := range available {
		p.EnsureArm(a)
		sd := p.Sigma / math.Sqrt(float64(p.Count(a))+1)
		draw := p.MeanReward(a) + p.rng.NormFloat64()*sd
		if !found || draw > bestDraw {
			best, bestDraw, found = a, draw, true
		}
	}
	return best, found
}
