package classify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sbcrawl/internal/learn"
	"sbcrawl/internal/textvec"
)

// score is the real-valued confidence for ClassTarget that every model
// family's Predict thresholds.
func score(m learn.Model, x textvec.Sparse) float64 {
	return m.(interface{ Score(textvec.Sparse) float64 }).Score(x)
}

// retainingOnline is Algorithm 2 as Online implemented it when it kept each
// classified link's feature vector until the link was observed — the
// reference the scratch-and-arena Online must match.
type retainingOnline struct {
	set     FeatureSet
	model   learn.Model
	head    HeadFunc
	b       int
	batch   []learn.Example
	initial bool
	pending map[string]retainedPrediction
	conf    *Confusion
}

type retainedPrediction struct {
	x    textvec.Sparse
	pred int
}

func newRetainingOnline(set FeatureSet, model string, b int, head HeadFunc) *retainingOnline {
	return &retainingOnline{set: set, model: learn.NewModel(model), head: head, b: b, initial: true,
		pending: map[string]retainedPrediction{}, conf: NewConfusion()}
}

func (o *retainingOnline) Classify(link LinkContext) (int, bool) {
	x := Features(o.set, link)
	if o.initial {
		true3 := o.head(link.URL)
		if true3 == ClassHTML || true3 == ClassTarget {
			o.addExample(learn.Example{X: x, Y: true3})
		}
		if true3 == ClassNeither {
			true3 = ClassHTML
		}
		return true3, true
	}
	pred := o.model.Predict(x)
	o.pending[link.URL] = retainedPrediction{x: x, pred: pred}
	return pred, false
}

func (o *retainingOnline) Guess(link LinkContext) int { return o.model.Predict(Features(o.set, link)) }

func (o *retainingOnline) Observe(url string, trueClass int) {
	p, had := o.pending[url]
	if had {
		delete(o.pending, url)
		o.conf.Record(trueClass, p.pred)
	}
	if trueClass != ClassHTML && trueClass != ClassTarget {
		return
	}
	x := p.x
	if !had {
		x = Features(o.set, LinkContext{URL: url})
	}
	o.addExample(learn.Example{X: x, Y: trueClass})
}

func (o *retainingOnline) addExample(ex learn.Example) {
	o.batch = append(o.batch, ex)
	if len(o.batch) >= o.b {
		o.model.PartialFit(o.batch)
		o.batch = o.batch[:0]
		o.initial = false
	}
}

// streamLink draws one of a small site's links, with its context varying
// between draws so a URL classified twice is classified from two contexts.
func streamLink(rng *rand.Rand) LinkContext {
	i := rng.Intn(40)
	var u string
	switch i % 5 {
	case 0, 1:
		u = htmlURL(i)
	case 2, 3:
		u = dataURL(i)
	default:
		u = fmt.Sprintf("https://x.org/broken/%d", i)
	}
	anchors := []string{"download", "next page", "Données 2024", ""}
	return LinkContext{
		URL:             u,
		AnchorText:      anchors[rng.Intn(len(anchors))],
		TagPath:         fmt.Sprintf("html body div.c%d ul li a", rng.Intn(3)),
		SurroundingText: fmt.Sprintf("annual statistics, part %d", rng.Intn(5)),
	}
}

// TestOnlineMatchesRetainingReference: a seeded stream of Classify, Guess
// and Observe calls — HEAD-phase links, links classified and never observed,
// observations without a classification, URLs classified twice before their
// observation, Neither truths — gives the same answers, confusion matrix and
// probe scores after every call as the classifier that retained features.
func TestOnlineMatchesRetainingReference(t *testing.T) {
	probes := []LinkContext{
		{URL: dataURL(500), AnchorText: "download"},
		{URL: htmlURL(500), AnchorText: "next page", TagPath: "html body nav a"},
		{URL: "https://x.org/broken/500", SurroundingText: "gone"},
	}
	for _, set := range []FeatureSet{URLOnly, URLContent} {
		for _, model := range learn.ModelNames {
			t.Run(set.String()+"/"+model, func(t *testing.T) {
				rng := rand.New(rand.NewSource(21))
				got := NewOnline(Config{Model: learn.NewModel(model), BatchSize: 5, Features: set, Head: fakeTruth})
				ref := newRetainingOnline(set, model, 5, fakeTruth)
				for step := 0; step < 3000; step++ {
					link := streamLink(rng)
					switch op := rng.Intn(10); {
					case op < 5:
						c, head := got.Classify(link)
						rc, rhead := ref.Classify(link)
						if c != rc || head != rhead {
							t.Fatalf("step %d: Classify(%q) = %d, %v; reference %d, %v", step, link.URL, c, head, rc, rhead)
						}
					case op < 7:
						if g, rg := got.Guess(link), ref.Guess(link); g != rg {
							t.Fatalf("step %d: Guess(%q) = %d, reference %d", step, link.URL, g, rg)
						}
					case link.URL != dataURL(38): // classified, never observed
						got.Observe(link.URL, fakeTruth(link.URL))
						ref.Observe(link.URL, fakeTruth(link.URL))
					}
					if got.InInitialPhase() != ref.initial || len(got.batch) != len(ref.batch) || len(got.pending) != len(ref.pending) {
						t.Fatalf("step %d: initial %v, batch %d, pending %d; reference %v, %d, %d", step,
							got.InInitialPhase(), len(got.batch), len(got.pending), ref.initial, len(ref.batch), len(ref.pending))
					}
					if got.Confusion().Counts != ref.conf.Counts {
						t.Fatalf("step %d: confusion %v, reference %v", step, got.Confusion().Counts, ref.conf.Counts)
					}
					if len(got.batch) != 0 {
						continue
					}
					for _, p := range probes {
						x := Features(set, p)
						if s, rs := score(got.model, x), score(ref.model, x); math.Float64bits(s) != math.Float64bits(rs) {
							t.Fatalf("step %d: Score(%q) = %v, reference %v", step, p.URL, s, rs)
						}
					}
				}
				if got.InInitialPhase() || got.Confusion().Total() == 0 {
					t.Fatal("the stream never left the HEAD phase or never scored a prediction")
				}
			})
		}
	}
}

// TestOnlineClassifyObserveAlloc: past the HEAD phase a URL_ONLY link costs
// nothing to classify and learn from, a URL_CONT link one copy of its
// context, and a guess nothing.
func TestOnlineClassifyObserveAlloc(t *testing.T) {
	for _, tc := range []struct {
		set  FeatureSet
		want float64
	}{{URLOnly, 0}, {URLContent, 1}} {
		o := NewOnline(Config{BatchSize: 4, Features: tc.set, Head: fakeTruth})
		link := LinkContext{URL: dataURL(99), AnchorText: "download", TagPath: "html body ul li a", SurroundingText: "annual data"}
		cycle := func() {
			o.Classify(link)
			o.Observe(link.URL, ClassTarget)
		}
		for i := 0; i < 3*4; i++ { // leave the HEAD phase, then warm the arena
			cycle()
		}
		if o.InInitialPhase() {
			t.Fatal("initial phase should be over")
		}
		if got := testing.AllocsPerRun(100, cycle); got > tc.want {
			t.Errorf("%s: Classify+Observe allocates %v times per link, want <= %v", tc.set, got, tc.want)
		}
		if got := testing.AllocsPerRun(100, func() { o.Guess(link) }); got != 0 {
			t.Errorf("%s: Guess allocates %v times per link, want 0", tc.set, got)
		}
	}
}
