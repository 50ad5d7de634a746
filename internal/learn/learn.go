// Package learn implements the lightweight online binary classifiers of
// Section 3.3 and Table 5 of the paper: logistic regression trained by
// stochastic gradient descent (the default), a linear SVM, multinomial Naive
// Bayes, and a passive–aggressive classifier. All models consume sparse
// feature vectors, train incrementally in mini-batches, and are deterministic.
//
// # Sorted-sparse contract
//
// A feature vector is a textvec.Sparse: parallel IDs and Vals with IDs
// strictly ascending. Every sum over a vector — a dot product, an NB
// log-likelihood — runs front to back, and that ascending-ID order is what
// makes training and prediction bit-for-bit deterministic, a property the
// paper requires of the whole crawler. Weights and NB count tables are flat
// slices indexed by feature ID, grown on demand to the highest ID trained on
// (URL features span at most a few textvec.CharBigramDim blocks); an ID past
// the end reads as 0, exactly like a key missing from a map, so a score is
// the same float64 whether or not the table has grown to cover it. Score
// allocates nothing, and PartialFit allocates only when a table grows.
//
// # Table free list
//
// A crawl builds a fresh model, and its weight table grows once, to ~9,216
// float64s for URL features, and dies with the crawl; a daemon running
// thousands of short crawls would allocate one table each. Release hands a
// finished model's tables back: each is cleared and parked on a small free
// list, and the first grow of a later model takes a parked table instead of
// allocating. A parked table is all zeros, the state a fresh table starts
// in, so reuse changes no score. Release's contract is that the model is not
// used again; it drops the model's references, so a model used anyway
// regrows from zero and never shares a table with another.
//
// Labels are binary: 0 ("HTML") and 1 ("Target"). The deliberate two-class
// design — despite some URLs being "Neither" — follows the paper's analysis
// of asymmetric misclassification costs.
package learn

import (
	"math"

	"sbcrawl/internal/freelist"
	"sbcrawl/internal/textvec"
)

// Class labels.
const (
	ClassHTML   = 0
	ClassTarget = 1
)

// Example is one labeled training instance.
type Example struct {
	X textvec.Sparse
	Y int
}

// Model is an online binary classifier.
type Model interface {
	// PartialFit performs one incremental training pass over the batch
	// (one SGD epoch for the gradient models, count updates for NB). It
	// keeps no reference to the batch or its vectors: a caller may reuse
	// their memory as soon as it returns.
	PartialFit(batch []Example)
	// Predict returns ClassHTML or ClassTarget.
	Predict(x textvec.Sparse) int
}

// weights is a flat weight vector plus bias shared by the linear models,
// indexed by feature ID and grown on demand to the highest ID trained on
// (at most a few CharBigramDim blocks). IDs past its end have weight 0.
type weights struct {
	w []float64
	b float64
}

// at returns the weight of a feature, 0 for one never trained on.
func at(w []float64, id int32) float64 {
	if int(id) < len(w) {
		return w[id]
	}
	return 0
}

// grow extends a table indexed by feature ID with zero values so that every
// ID of x — the last is the highest — indexes it.
func grow[T any](w []T, x textvec.Sparse) []T {
	if n := len(x.IDs); n > 0 && int(x.IDs[n-1]) >= len(w) {
		w = append(w, make([]T, int(x.IDs[n-1])+1-len(w))...)
	}
	return w
}

// tableFree is the free list of weight tables (see the package comment).
var tableFree = freelist.New[[]float64]()

// growTable is grow for a float64 table, which starts from a parked table
// when it has none yet.
func growTable(w []float64, x textvec.Sparse) []float64 {
	if w == nil && len(x.IDs) > 0 {
		w, _ = tableFree.Get()
	}
	return grow(w, x)
}

// park parks the table *w at length 0 if the free list has room — grow
// zeroes what it extends into — and drops the reference.
func park(w *[]float64) {
	if cap(*w) > 0 {
		tableFree.Put((*w)[:0])
	}
	*w = nil
}

// Release returns m's weight tables to the free list for the next model to
// grow into; m must not be used afterwards. The tables of LR, SVM and PA
// and NB's per-class counts are parked; a model of another type, a wrapper
// included, is left alone.
func Release(m Model) {
	switch m := m.(type) {
	case *LogisticRegression:
		park(&m.w)
	case *LinearSVM:
		park(&m.w)
	case *PassiveAggressive:
		park(&m.w)
	case *NaiveBayes:
		park(&m.featCount[0])
		park(&m.featCount[1])
	}
}

func (ws *weights) dot(x textvec.Sparse) float64 {
	s := ws.b
	for k, id := range x.IDs {
		s += at(ws.w, id) * x.Vals[k]
	}
	return s
}

// decay shrinks the weights of x's features by factor (the L2 step).
func (ws *weights) decay(factor float64, x textvec.Sparse) {
	ws.w = growTable(ws.w, x)
	for _, id := range x.IDs {
		ws.w[id] *= factor
	}
}

func (ws *weights) axpy(scale float64, x textvec.Sparse) {
	ws.w = growTable(ws.w, x)
	for k, id := range x.IDs {
		ws.w[id] += scale * x.Vals[k]
	}
	ws.b += scale
}

// LogisticRegression is an SGD-trained logistic regression, the paper's
// default URL classifier model (URL_ONLY-LR).
type LogisticRegression struct {
	weights
	// LR is the SGD learning rate.
	LR float64
	// L2 is the ridge regularization strength applied per update.
	L2 float64
	// Epochs is the number of passes over each mini-batch.
	Epochs int
}

// NewLogisticRegression returns a model with sensible online defaults.
func NewLogisticRegression() *LogisticRegression {
	return &LogisticRegression{LR: 0.5, L2: 1e-6, Epochs: 3}
}

// Score returns P(target|x) − 0.5 scaled to a margin-like value (the raw
// linear score), positive for ClassTarget.
func (m *LogisticRegression) Score(x textvec.Sparse) float64 { return m.dot(x) }

// Predict implements Model.
func (m *LogisticRegression) Predict(x textvec.Sparse) int {
	if m.Score(x) > 0 {
		return ClassTarget
	}
	return ClassHTML
}

// PartialFit implements Model: Epochs passes of SGD with log loss.
func (m *LogisticRegression) PartialFit(batch []Example) {
	for e := 0; e < m.Epochs; e++ {
		for _, ex := range batch {
			y := float64(ex.Y) // 1 for target, 0 for html
			p := sigmoid(m.dot(ex.X))
			grad := p - y
			if m.L2 > 0 {
				m.decay(1-m.LR*m.L2, ex.X)
			}
			m.axpy(-m.LR*grad, ex.X)
		}
	}
}

func sigmoid(z float64) float64 {
	if z > 30 {
		return 1
	}
	if z < -30 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// LinearSVM is an SGD-trained soft-margin linear SVM (hinge loss).
type LinearSVM struct {
	weights
	LR     float64
	L2     float64
	Epochs int
}

// NewLinearSVM returns a model with online defaults.
func NewLinearSVM() *LinearSVM {
	return &LinearSVM{LR: 0.5, L2: 1e-6, Epochs: 3}
}

// Score returns the raw linear score, positive for ClassTarget.
func (m *LinearSVM) Score(x textvec.Sparse) float64 { return m.dot(x) }

// Predict implements Model.
func (m *LinearSVM) Predict(x textvec.Sparse) int {
	if m.Score(x) > 0 {
		return ClassTarget
	}
	return ClassHTML
}

// PartialFit implements Model.
func (m *LinearSVM) PartialFit(batch []Example) {
	for e := 0; e < m.Epochs; e++ {
		for _, ex := range batch {
			y := signed(ex.Y)
			margin := y * m.dot(ex.X)
			if m.L2 > 0 {
				m.decay(1-m.LR*m.L2, ex.X)
			}
			if margin < 1 {
				m.axpy(m.LR*y, ex.X)
			}
		}
	}
}

func signed(y int) float64 {
	if y == ClassTarget {
		return 1
	}
	return -1
}

// NaiveBayes is an incrementally trained multinomial Naive Bayes classifier
// with Laplace smoothing.
type NaiveBayes struct {
	// Alpha is the Laplace smoothing pseudo-count.
	Alpha float64

	classCount [2]float64
	featCount  [2][]float64 // per class, indexed by feature ID like weights.w
	featTotal  [2]float64
	inVocab    []bool // feature IDs seen in training
	vocab      int    // how many
}

// NewNaiveBayes returns a model with add-one smoothing.
func NewNaiveBayes() *NaiveBayes { return &NaiveBayes{Alpha: 1} }

// PartialFit implements Model: counts accumulate, so NB is naturally online.
func (m *NaiveBayes) PartialFit(batch []Example) {
	for _, ex := range batch {
		c := ex.Y
		m.classCount[c]++
		m.featCount[c] = growTable(m.featCount[c], ex.X)
		m.inVocab = grow(m.inVocab, ex.X)
		for k, id := range ex.X.IDs {
			v := ex.X.Vals[k]
			if v < 0 {
				v = 0
			}
			m.featCount[c][id] += v
			m.featTotal[c] += v
			if !m.inVocab[id] {
				m.inVocab[id] = true
				m.vocab++
			}
		}
	}
}

// Score returns log P(target|x) − log P(html|x).
func (m *NaiveBayes) Score(x textvec.Sparse) float64 {
	total := m.classCount[0] + m.classCount[1]
	if total == 0 {
		return 0
	}
	v := float64(m.vocab)
	score := [2]float64{}
	for c := 0; c < 2; c++ {
		score[c] = math.Log((m.classCount[c] + m.Alpha) / (total + 2*m.Alpha))
		denom := m.featTotal[c] + m.Alpha*v
		for k, id := range x.IDs {
			cnt := x.Vals[k]
			if cnt <= 0 {
				continue
			}
			score[c] += cnt * math.Log((at(m.featCount[c], id)+m.Alpha)/denom)
		}
	}
	return score[1] - score[0]
}

// Predict implements Model.
func (m *NaiveBayes) Predict(x textvec.Sparse) int {
	if m.Score(x) > 0 {
		return ClassTarget
	}
	return ClassHTML
}

// PassiveAggressive is the PA-I online classifier of Crammer et al.
// (ref. [49]): on each mistake or margin violation it takes the smallest
// step that restores a unit margin, capped by aggressiveness C.
type PassiveAggressive struct {
	weights
	// C caps the per-example step size (PA-I).
	C float64
}

// NewPassiveAggressive returns a PA-I model with C=1.
func NewPassiveAggressive() *PassiveAggressive {
	return &PassiveAggressive{C: 1}
}

// Score returns the raw linear score, positive for ClassTarget.
func (m *PassiveAggressive) Score(x textvec.Sparse) float64 { return m.dot(x) }

// Predict implements Model.
func (m *PassiveAggressive) Predict(x textvec.Sparse) int {
	if m.Score(x) > 0 {
		return ClassTarget
	}
	return ClassHTML
}

// PartialFit implements Model.
func (m *PassiveAggressive) PartialFit(batch []Example) {
	for _, ex := range batch {
		y := signed(ex.Y)
		loss := 1 - y*m.dot(ex.X)
		if loss <= 0 {
			continue
		}
		var norm2 float64
		for _, v := range ex.X.Vals {
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

// NewModel constructs a model by family name ("LR", "SVM", "NB", "PA"); it
// returns nil for unknown names.
func NewModel(name string) Model {
	switch name {
	case "LR":
		return NewLogisticRegression()
	case "SVM":
		return NewLinearSVM()
	case "NB":
		return NewNaiveBayes()
	case "PA":
		return NewPassiveAggressive()
	}
	return nil
}

// ModelNames lists the supported families in the order Table 5 reports them.
var ModelNames = []string{"LR", "SVM", "NB", "PA"}
