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
// predicted, once learned from — and Online keeps no features in between:
// it predicts from one reused scratch vector, remembers the prediction (and,
// for URL_CONT, a copy of the link's context), and featurizes a link again
// only when it becomes a training example, into a batch arena reused after
// every fit and handed, with the model's weight tables, the scratch, the
// example slots and the pending map, to a small free list for the next
// classifier when the crawl releases it. The model is only ever
// reached through the learn.Model interface (callers may wrap it).
package classify

import (
	"sbcrawl/internal/freelist"
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

// Features vectorizes a link for the given feature set into a new vector.
// Feature blocks are offset so URL, anchor, path, and context bigrams do not
// collide.
func Features(set FeatureSet, link LinkContext) textvec.Sparse {
	return appendFeatures(textvec.MakeSparse(featureBound(set, link)), set, link)
}

// featureBound bounds the entries Features can produce: a string of n bytes
// has at most n-1 distinct bigrams.
func featureBound(set FeatureSet, link LinkContext) int {
	if set != URLContent {
		return len(link.URL)
	}
	return len(link.URL) + len(link.AnchorText) + len(link.TagPath) + len(link.SurroundingText)
}

// appendFeatures appends the link's features, in ascending ID order, after
// whatever x already holds.
func appendFeatures(x textvec.Sparse, set FeatureSet, link LinkContext) textvec.Sparse {
	x = x.AppendCharBigrams(link.URL, 0)
	if set != URLContent {
		return x
	}
	x = x.AppendCharBigrams(link.AnchorText, 1*textvec.CharBigramDim)
	x = x.AppendCharBigrams(link.TagPath, 2*textvec.CharBigramDim)
	return x.AppendCharBigrams(link.SurroundingText, 3*textvec.CharBigramDim)
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
	fits    int // batches fit so far (see Refits); 0 during the initial phase
	pending map[string]pendingPrediction
	// peak is the most predictions pending at once: the size the pending map
	// grew to, which Release bounds what it parks by.
	peak int
	conf *Confusion
	// x is the scratch Classify and Guess featurize a link into.
	x textvec.Sparse
	// arena holds the features of batch back to back. It is reused once the
	// batch is fit, which learn.Model allows: PartialFit keeps no reference.
	arena textvec.Sparse
}

// pendingPrediction is what Observe needs of a classified link: the
// prediction and, for URL_CONT, the context it was made from. URL_ONLY
// features are the URL's, and the URL is the pending map's key.
type pendingPrediction struct {
	link *LinkContext
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
	o := &Online{
		cfg:   cfg,
		model: cfg.Model,
		conf:  NewConfusion(),
	}
	if t, ok := arenaFree.Get(); ok {
		o.arena, o.x, o.batch, o.pending = t.arena, t.x, t.batch, t.pending
	}
	if o.pending == nil {
		o.pending = make(map[string]pendingPrediction)
	}
	return o
}

// parkedTables are what Release hands the next NewOnline: the batch arena,
// the featurizing scratch, the batch's example slots and the
// pending-prediction map, any of which may be missing.
type parkedTables struct {
	arena, x textvec.Sparse
	batch    []learn.Example
	pending  map[string]pendingPrediction
}

// arenaFree parks released classifiers' batch arenas (each doubles up to a
// batch's features, ~26 KB for URL_ONLY at b = 10), scratch vectors, example
// slots and pending maps for NewOnline. All are parked empty, the state a new
// one starts in, and the pending map is only ever looked up, never ranged
// over, so reuse changes no example and no prediction. A pending map that
// held more than maxParkedPending predictions at once is left to the GC, as
// are a scratch vector and example slots past their bounds.
var arenaFree = freelist.New[parkedTables]()

const (
	maxParkedPending = 1 << 10 // pending predictions (~0.08 MB of map slots)
	maxParkedX       = 1 << 12 // scratch features (48 KB), which grow with the longest link's text
	maxParkedBatch   = 1 << 8  // example slots, which grow to b
)

// Classify implements Classifier. During the initial training phase it
// spends a HEAD request per URL and returns the measured class; afterwards
// it predicts from features alone at zero HTTP cost.
func (o *Online) Classify(link LinkContext) (int, bool) {
	if o.fits == 0 && o.cfg.Head != nil {
		true3 := o.cfg.Head(link.URL)
		if true3 == ClassHTML || true3 == ClassTarget {
			o.addExample(link, true3)
		}
		// A "Neither" HEAD (errors) is routed to the frontier-class so the
		// crawler just wastes one later request — the cheap error kind.
		pred := true3
		if pred == ClassNeither {
			pred = ClassHTML
		}
		return pred, true
	}
	p := pendingPrediction{pred: o.Guess(link)}
	if o.cfg.Features == URLContent {
		// A copy made here, not &link: that would move every call's
		// parameter to the heap.
		lc := link
		p.link = &lc
	}
	o.pending[link.URL] = p
	o.peak = max(o.peak, len(o.pending))
	return p.pred, false
}

// Guess is the class the current weights give the link and nothing else: no
// HEAD, no pending prediction, no confusion entry. The crawl's speculation
// layer uses it to see which of a page's links Classify will probably call
// targets; the answer can differ from the later Classify when the model is
// refit in between, which costs a wasted hint, never a changed crawl.
func (o *Online) Guess(link LinkContext) int {
	o.x.IDs, o.x.Vals = o.x.IDs[:0], o.x.Vals[:0]
	o.x = appendFeatures(o.x, o.cfg.Features, link)
	return o.model.Predict(o.x)
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
	link := LinkContext{URL: url}
	if p.link != nil {
		link = *p.link
	}
	o.addExample(link, trueClass)
}

// addExample featurizes the link into the batch arena now, so no caller's
// string outlives the call (url may be a view into a store record), and fits
// the batch once it holds b examples.
func (o *Online) addExample(link LinkContext, y int) {
	start := len(o.arena.IDs)
	if need := featureBound(o.cfg.Features, link); cap(o.arena.IDs)-start < need {
		// Replaced, not grown: the examples already batched keep the old
		// array.
		o.arena = textvec.MakeSparse(max(need, 2*cap(o.arena.IDs)))
		start = 0
	}
	o.arena = appendFeatures(o.arena, o.cfg.Features, link)
	x := textvec.Sparse{IDs: o.arena.IDs[start:], Vals: o.arena.Vals[start:]}
	o.batch = append(o.batch, learn.Example{X: x, Y: y})
	if len(o.batch) >= o.cfg.BatchSize {
		o.model.PartialFit(o.batch)
		o.fits++
		o.batch = o.batch[:0]
		o.arena.IDs, o.arena.Vals = o.arena.IDs[:0], o.arena.Vals[:0]
	}
}

// Release returns the model's weight tables to learn's free list
// (learn.Release) and parks the batch arena, emptied even mid-batch, with the
// featurizing scratch, the example slots, zeroed, and the pending-prediction
// map, cleared, for the next NewOnline; a map that held more than
// maxParkedPending predictions at once is not parked, nor is a scratch or a
// slot table past maxParkedX or maxParkedBatch. The classifier must not be
// used after it; one used anyway starts a new arena and regrows its tables,
// never sharing either, and panics at its next prediction rather than share a
// pending map.
func (o *Online) Release() {
	learn.Release(o.model)
	t := parkedTables{arena: textvec.Sparse{IDs: o.arena.IDs[:0], Vals: o.arena.Vals[:0]}}
	if cap(o.x.IDs) <= maxParkedX {
		t.x = textvec.Sparse{IDs: o.x.IDs[:0], Vals: o.x.Vals[:0]}
	}
	if cap(o.batch) <= maxParkedBatch {
		clear(o.batch[:cap(o.batch)])
		t.batch = o.batch[:0]
	}
	if o.peak <= maxParkedPending {
		clear(o.pending)
		t.pending = o.pending
	}
	arenaFree.Put(t)
	o.arena, o.x, o.batch, o.pending = textvec.Sparse{}, textvec.Sparse{}, nil, nil
}

// InInitialPhase reports whether HEAD labeling is still active.
func (o *Online) InInitialPhase() bool { return o.fits == 0 }

// LabelsToFit is how many more labels the initial phase needs before the
// first fit ends it: b minus the examples batched so far, 0 once trained.
// Each HEAD probe that finds an HTML page or a target is one label, as is
// each GET the crawl observes, so the phase issues at most this many more
// probes that count (a probe answered "neither" labels nothing).
func (o *Online) LabelsToFit() int {
	if o.fits > 0 {
		return 0
	}
	return o.cfg.BatchSize - len(o.batch)
}

// Refits counts the batches fit so far. Guess answers from the weights of
// the latest fit, so a guess made before Refits moved may be stale.
func (o *Online) Refits() int { return o.fits }

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
