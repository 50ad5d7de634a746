package learn_test

// The map-keyed Algorithm 2 this package replaced, kept as the reference the
// differential tests in map_diff_test.go compare against: a copy of the
// parent commit's textvec.Sparse (map[int]float64 with Add, CharBigrams) and
// of its learn sortedIDs, weights and four models, verbatim except that
// every identifier carries a ref prefix. Do not optimise or "fix" anything
// here.

import (
	"math"
	"sort"

	"sbcrawl/internal/learn"
)

type refSparse map[int]float64

func (s refSparse) Add(other refSparse, offset int) {
	for id, v := range other {
		s[id+offset] += v
	}
}

const refCharClassCount = 96

func refCharClass(b byte) int {
	if b >= 0x20 && b < 0x7F {
		return int(b - 0x20)
	}
	return refCharClassCount - 1
}

const refCharBigramDim = refCharClassCount * refCharClassCount

func refCharBigrams(s string) refSparse {
	out := make(refSparse, len(s))
	for i := 0; i+1 < len(s); i++ {
		id := refCharClass(s[i])*refCharClassCount + refCharClass(s[i+1])
		out[id]++
	}
	return out
}

// refSortedIDs returns the feature IDs of x in increasing order. Iterating
// sparse vectors in a canonical order makes every floating-point sum — and
// therefore training and prediction — bit-for-bit deterministic, a property
// the paper requires of the whole crawler.
func refSortedIDs(x refSparse) []int {
	ids := make([]int, 0, len(x))
	for id := range x {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// refWeights is a sparse weight vector plus bias shared by the linear models.
type refWeights struct {
	w map[int]float64
	b float64
}

func refNewWeights() refWeights { return refWeights{w: make(map[int]float64)} }

func (ws *refWeights) dot(x refSparse) float64 {
	s := ws.b
	for _, id := range refSortedIDs(x) {
		s += ws.w[id] * x[id]
	}
	return s
}

func (ws *refWeights) axpy(scale float64, x refSparse) {
	for id, v := range x {
		ws.w[id] += scale * v
	}
	ws.b += scale
}

// refLogisticRegression is an SGD-trained logistic regression, the paper's
// default URL classifier model (URL_ONLY-LR).
type refLogisticRegression struct {
	refWeights
	// LR is the SGD learning rate.
	LR float64
	// L2 is the ridge regularization strength applied per update.
	L2 float64
	// Epochs is the number of passes over each mini-batch.
	Epochs int
}

// newRefLogisticRegression returns a model with sensible online defaults.
func newRefLogisticRegression() *refLogisticRegression {
	return &refLogisticRegression{refWeights: refNewWeights(), LR: 0.5, L2: 1e-6, Epochs: 3}
}

// Name implements Model.
func (m *refLogisticRegression) Name() string { return "LR" }

// Score returns P(target|x) − 0.5 scaled to a margin-like value (the raw
// linear score), positive for learn.ClassTarget.
func (m *refLogisticRegression) Score(x refSparse) float64 { return m.dot(x) }

// Predict implements Model.
func (m *refLogisticRegression) Predict(x refSparse) int {
	if m.Score(x) > 0 {
		return learn.ClassTarget
	}
	return learn.ClassHTML
}

// PartialFit implements Model: Epochs passes of SGD with log loss.
func (m *refLogisticRegression) PartialFit(batch []refExample) {
	for e := 0; e < m.Epochs; e++ {
		for _, ex := range batch {
			y := float64(ex.Y) // 1 for target, 0 for html
			p := refSigmoid(m.dot(ex.X))
			grad := p - y
			if m.L2 > 0 {
				for id := range ex.X {
					m.w[id] *= 1 - m.LR*m.L2
				}
			}
			m.axpy(-m.LR*grad, ex.X)
		}
	}
}

func refSigmoid(z float64) float64 {
	if z > 30 {
		return 1
	}
	if z < -30 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// refLinearSVM is an SGD-trained soft-margin linear SVM (hinge loss).
type refLinearSVM struct {
	refWeights
	LR     float64
	L2     float64
	Epochs int
}

// newRefLinearSVM returns a model with online defaults.
func newRefLinearSVM() *refLinearSVM {
	return &refLinearSVM{refWeights: refNewWeights(), LR: 0.5, L2: 1e-6, Epochs: 3}
}

// Name implements Model.
func (m *refLinearSVM) Name() string { return "SVM" }

// Score implements Model.
func (m *refLinearSVM) Score(x refSparse) float64 { return m.dot(x) }

// Predict implements Model.
func (m *refLinearSVM) Predict(x refSparse) int {
	if m.Score(x) > 0 {
		return learn.ClassTarget
	}
	return learn.ClassHTML
}

// PartialFit implements Model.
func (m *refLinearSVM) PartialFit(batch []refExample) {
	for e := 0; e < m.Epochs; e++ {
		for _, ex := range batch {
			y := refSigned(ex.Y)
			margin := y * m.dot(ex.X)
			if m.L2 > 0 {
				for id := range ex.X {
					m.w[id] *= 1 - m.LR*m.L2
				}
			}
			if margin < 1 {
				m.axpy(m.LR*y, ex.X)
			}
		}
	}
}

func refSigned(y int) float64 {
	if y == learn.ClassTarget {
		return 1
	}
	return -1
}

// refNaiveBayes is an incrementally trained multinomial Naive Bayes classifier
// with Laplace smoothing.
type refNaiveBayes struct {
	// Alpha is the Laplace smoothing pseudo-count.
	Alpha float64

	classCount [2]float64
	featCount  [2]map[int]float64
	featTotal  [2]float64
	vocab      map[int]struct{}
}

// newRefNaiveBayes returns a model with add-one smoothing.
func newRefNaiveBayes() *refNaiveBayes {
	return &refNaiveBayes{
		Alpha:     1,
		featCount: [2]map[int]float64{make(map[int]float64), make(map[int]float64)},
		vocab:     make(map[int]struct{}),
	}
}

// Name implements Model.
func (m *refNaiveBayes) Name() string { return "NB" }

// PartialFit implements Model: counts accumulate, so NB is naturally online.
func (m *refNaiveBayes) PartialFit(batch []refExample) {
	for _, ex := range batch {
		c := ex.Y
		m.classCount[c]++
		for _, id := range refSortedIDs(ex.X) {
			v := ex.X[id]
			if v < 0 {
				v = 0
			}
			m.featCount[c][id] += v
			m.featTotal[c] += v
			m.vocab[id] = struct{}{}
		}
	}
}

// Score returns log P(target|x) − log P(html|x).
func (m *refNaiveBayes) Score(x refSparse) float64 {
	total := m.classCount[0] + m.classCount[1]
	if total == 0 {
		return 0
	}
	v := float64(len(m.vocab))
	score := [2]float64{}
	ids := refSortedIDs(x)
	for c := 0; c < 2; c++ {
		score[c] = math.Log((m.classCount[c] + m.Alpha) / (total + 2*m.Alpha))
		denom := m.featTotal[c] + m.Alpha*v
		for _, id := range ids {
			cnt := x[id]
			if cnt <= 0 {
				continue
			}
			score[c] += cnt * math.Log((m.featCount[c][id]+m.Alpha)/denom)
		}
	}
	return score[1] - score[0]
}

// Predict implements Model.
func (m *refNaiveBayes) Predict(x refSparse) int {
	if m.Score(x) > 0 {
		return learn.ClassTarget
	}
	return learn.ClassHTML
}

// refPassiveAggressive is the PA-I online classifier of Crammer et al.
// (ref. [49]): on each mistake or margin violation it takes the smallest
// step that restores a unit margin, capped by aggressiveness C.
type refPassiveAggressive struct {
	refWeights
	// C caps the per-example step size (PA-I).
	C float64
}

// newRefPassiveAggressive returns a PA-I model with C=1.
func newRefPassiveAggressive() *refPassiveAggressive {
	return &refPassiveAggressive{refWeights: refNewWeights(), C: 1}
}

// Name implements Model.
func (m *refPassiveAggressive) Name() string { return "PA" }

// Score implements Model.
func (m *refPassiveAggressive) Score(x refSparse) float64 { return m.dot(x) }

// Predict implements Model.
func (m *refPassiveAggressive) Predict(x refSparse) int {
	if m.Score(x) > 0 {
		return learn.ClassTarget
	}
	return learn.ClassHTML
}

// PartialFit implements Model.
func (m *refPassiveAggressive) PartialFit(batch []refExample) {
	for _, ex := range batch {
		y := refSigned(ex.Y)
		loss := 1 - y*m.dot(ex.X)
		if loss <= 0 {
			continue
		}
		var norm2 float64
		for _, v := range ex.X {
			norm2 += v * v
		}
		norm2++ // bias term
		tau := loss / norm2
		if tau > m.C {
			tau = m.C
		}
		m.axpy(tau*y, ex.X)
	}
}

type refExample struct {
	X refSparse
	Y int
}

// refModel is the slice of the parent's Model interface the tests drive.
type refModel interface {
	PartialFit(batch []refExample)
	Score(x refSparse) float64
}

func newRefModel(name string) refModel {
	switch name {
	case "LR":
		return newRefLogisticRegression()
	case "SVM":
		return newRefLinearSVM()
	case "NB":
		return newRefNaiveBayes()
	case "PA":
		return newRefPassiveAggressive()
	}
	return nil
}
