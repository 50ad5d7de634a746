// Package classify implements the online URL classifier of Algorithm 2: a
// lightweight model over character-bigram URL features that predicts whether
// a hyperlink leads to an HTML page or a target, trained first from a batch
// of HTTP HEAD requests and then online, for free, from every GET response.
// It also provides the perfect oracle used by SB-ORACLE and the confusion
// matrices of Tables 8–16.
//
// Features are sorted sparse vectors (textvec.Sparse, IDs strictly
// ascending): Features concatenates the URL, anchor, tag-path and context
// blocks in ascending offset order, which keeps the whole vector sorted and
// therefore every model score bit-identical from run to run (see the learn
// package comment). Every discovered link passes through here twice — once
// predicted, once learned from — so between the two Online retains just the
// link's two feature slices, and the model is only ever reached through the
// learn.Model interface (callers may wrap it).
package classify

import (
	"sbcrawl/internal/learn"
	"sbcrawl/internal/textvec"
)

// URL classes. HTML and Target are the two trained classes; Neither exists
// only as ground truth (4xx/5xx and non-target MIME types) — the classifier
// deliberately never predicts it (Sec. 3.3's misclassification-cost
// argument).
const (
	ClassHTML    = learn.ClassHTML
	ClassTarget  = learn.ClassTarget
	ClassNeither = 2
)

// LinkContext carries everything known about a hyperlink at discovery time.
// URL_ONLY features use just the URL; URL_CONT adds anchor text, DOM path,
// and surrounding text (Table 5).
type LinkContext struct {
	URL             string
	AnchorText      string
	TagPath         string
	SurroundingText string
}

// FeatureSet selects the classifier's input representation.
type FeatureSet int

// Feature sets of Table 5.
const (
	URLOnly FeatureSet = iota
	URLContent
)

// String names the feature set as the paper does.
func (f FeatureSet) String() string {
	if f == URLContent {
		return "URL_CONT"
	}
	return "URL_ONLY"
}

// Features vectorizes a link for the given feature set. Feature blocks are
// offset so URL, anchor, path, and context bigrams do not collide.
func Features(set FeatureSet, link LinkContext) textvec.Sparse {
	if set != URLContent {
		return textvec.CharBigrams(link.URL)
	}
	x := textvec.MakeSparse(len(link.URL) + len(link.AnchorText) + len(link.TagPath) + len(link.SurroundingText))
	x = x.AppendCharBigrams(link.URL, 0)
	x = x.AppendCharBigrams(link.AnchorText, 1*textvec.CharBigramDim)
	x = x.AppendCharBigrams(link.TagPath, 2*textvec.CharBigramDim)
	x = x.AppendCharBigrams(link.SurroundingText, 3*textvec.CharBigramDim)
	return x
}

// Classifier is what the crawl engine consults for every discovered link.
type Classifier interface {
	// Classify predicts the link's class (ClassHTML or ClassTarget) and
	// reports whether an HTTP HEAD request was spent doing so (the initial
	// training phase of Algorithm 2).
	Classify(link LinkContext) (class int, usedHead bool)
	// Observe feeds the true class of a URL once a GET response reveals
	// it; Neither observations update diagnostics but never the model.
	Observe(url string, trueClass int)
}

// HeadFunc performs an HTTP HEAD on a URL and maps the response to a true
// class. The crawl engine provides it, charging the request to its budget.
type HeadFunc func(url string) int

// Config parameterizes the online classifier.
type Config struct {
	// Model is the learner; nil defaults to logistic regression, the
	// paper's URL_ONLY-LR choice.
	Model learn.Model
	// BatchSize is b of Algorithm 2 (paper default 10).
	BatchSize int
	// Features selects URL_ONLY or URL_CONT.
	Features FeatureSet
	// Head labels URLs during the initial training phase.
	Head HeadFunc
}

// Online is the classifier of Algorithm 2.
type Online struct {
	cfg     Config
	model   learn.Model
	batch   []learn.Example
	initial bool
	trained bool
	pending map[string]pendingPrediction
	conf    *Confusion
}

type pendingPrediction struct {
	x    textvec.Sparse
	pred int
}

// NewOnline builds the classifier.
func NewOnline(cfg Config) *Online {
	if cfg.Model == nil {
		cfg.Model = learn.NewLogisticRegression()
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 10
	}
	return &Online{
		cfg:     cfg,
		model:   cfg.Model,
		initial: true,
		pending: make(map[string]pendingPrediction),
		conf:    NewConfusion(),
	}
}

// Classify implements Classifier. During the initial training phase it
// spends a HEAD request per URL and returns the measured class; afterwards
// it predicts from features alone at zero HTTP cost.
func (o *Online) Classify(link LinkContext) (int, bool) {
	return o.ClassifyFeatures(link.URL, o.Features(link))
}

// Features vectorizes a link under the classifier's feature set. A caller
// that wants a look at a link before classifying it (Guess) extracts the
// features once here and hands the same slices to ClassifyFeatures.
func (o *Online) Features(link LinkContext) textvec.Sparse {
	return Features(o.cfg.Features, link)
}

// Guess is the class the current weights give x and nothing else: no HEAD,
// no pending prediction, no confusion entry. The crawl's speculation layer
// uses it to see which of a page's links Classify will probably call
// targets; the answer can differ from the later Classify when the model is
// refit in between, which costs a wasted hint, never a changed crawl.
func (o *Online) Guess(x textvec.Sparse) int { return o.model.Predict(x) }

// ClassifyFeatures is Classify over the link's already-extracted features
// (x must be Features of the link; Online retains its slices).
func (o *Online) ClassifyFeatures(url string, x textvec.Sparse) (int, bool) {
	if o.initial && o.cfg.Head != nil {
		true3 := o.cfg.Head(url)
		if true3 == ClassHTML || true3 == ClassTarget {
			o.addExample(learn.Example{X: x, Y: true3})
		}
		// A "Neither" HEAD (errors) is routed to the frontier-class so the
		// crawler just wastes one later request — the cheap error kind.
		pred := true3
		if pred == ClassNeither {
			pred = ClassHTML
		}
		return pred, true
	}
	pred := o.model.Predict(x)
	o.pending[url] = pendingPrediction{x: x, pred: pred}
	return pred, false
}

// Observe implements Classifier: every GET response contributes an annotated
// (URL, class) pair at no extra HTTP cost, and predictions are scored into
// the confusion matrix once the truth is known.
func (o *Online) Observe(url string, trueClass int) {
	p, had := o.pending[url]
	if had {
		delete(o.pending, url)
		o.conf.Record(trueClass, p.pred)
	}
	if trueClass != ClassHTML && trueClass != ClassTarget {
		return // Neither is never trained on (two-class design)
	}
	x := p.x
	if !had {
		x = Features(o.cfg.Features, LinkContext{URL: url})
	}
	o.addExample(learn.Example{X: x, Y: trueClass})
}

func (o *Online) addExample(ex learn.Example) {
	o.batch = append(o.batch, ex)
	if len(o.batch) >= o.cfg.BatchSize {
		o.model.PartialFit(o.batch)
		o.batch = o.batch[:0]
		o.trained = true
		o.initial = false
	}
}

// InInitialPhase reports whether HEAD labeling is still active.
func (o *Online) InInitialPhase() bool { return o.initial }

// Confusion returns the accumulated confusion matrix.
func (o *Online) Confusion() *Confusion { return o.conf }

// Oracle is the perfect URL classifier of SB-ORACLE: it knows every URL's
// true class and costs nothing. Truth returns ClassHTML, ClassTarget, or
// ClassNeither.
type Oracle struct {
	Truth func(url string) int
}

// Classify implements Classifier. Neither URLs are reported as HTML so the
// oracle crawler still skips them the moment they 404 — matching the
// paper's SB-ORACLE, which is an oracle for HTML/Target separation.
func (o *Oracle) Classify(link LinkContext) (int, bool) {
	c := o.Truth(link.URL)
	if c == ClassNeither {
		c = ClassHTML
	}
	return c, false
}

// Observe implements Classifier (the oracle has nothing to learn).
func (o *Oracle) Observe(string, int) {}
