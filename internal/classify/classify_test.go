package classify

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"sbcrawl/internal/learn"
	"sbcrawl/internal/textvec"
)

// fakeSite maps URL shapes to true classes: /page/... is HTML, /data/...csv
// is a target, /broken/... is Neither.
func fakeTruth(url string) int {
	switch {
	case strings.Contains(url, "/data/"):
		return ClassTarget
	case strings.Contains(url, "/broken/"):
		return ClassNeither
	default:
		return ClassHTML
	}
}

func htmlURL(i int) string { return fmt.Sprintf("https://x.org/page/topic-%d", i) }
func dataURL(i int) string { return fmt.Sprintf("https://x.org/data/file-%d.csv", i) }

func TestInitialPhaseUsesHead(t *testing.T) {
	heads := 0
	o := NewOnline(Config{
		BatchSize: 6,
		Head: func(url string) int {
			heads++
			return fakeTruth(url)
		},
	})
	// First b classifications are HEAD-labeled and return the true class.
	for i := 0; i < 3; i++ {
		c, usedHead := o.Classify(LinkContext{URL: htmlURL(i)})
		if !usedHead || c != ClassHTML {
			t.Fatalf("initial classify #%d: class=%d usedHead=%v", i, c, usedHead)
		}
		c, usedHead = o.Classify(LinkContext{URL: dataURL(i)})
		if !usedHead || c != ClassTarget {
			t.Fatalf("initial classify target #%d: class=%d usedHead=%v", i, c, usedHead)
		}
	}
	if heads != 6 {
		t.Errorf("HEAD requests = %d, want 6", heads)
	}
	if o.InInitialPhase() {
		t.Error("after b labeled examples the initial phase must end")
	}
	// Subsequent classifications are free.
	_, usedHead := o.Classify(LinkContext{URL: dataURL(99)})
	if usedHead {
		t.Error("post-initial classification must not spend HEAD requests")
	}
	if heads != 6 {
		t.Errorf("HEAD count grew to %d after initial phase", heads)
	}
}

func TestNeitherHeadsRouteToHTMLAndSkipTraining(t *testing.T) {
	o := NewOnline(Config{
		BatchSize: 4,
		Head:      func(url string) int { return fakeTruth(url) },
	})
	c, usedHead := o.Classify(LinkContext{URL: "https://x.org/broken/1"})
	if !usedHead || c != ClassHTML {
		t.Errorf("Neither must classify as HTML in initial phase, got %d", c)
	}
	if len(o.batch) != 0 {
		t.Error("Neither URLs must not enter the training batch")
	}
}

func TestOnlineLearningFromObservations(t *testing.T) {
	o := NewOnline(Config{
		BatchSize: 8,
		Head:      func(url string) int { return fakeTruth(url) },
	})
	// Bootstrap via initial phase.
	for i := 0; i < 4; i++ {
		o.Classify(LinkContext{URL: htmlURL(i)})
		o.Classify(LinkContext{URL: dataURL(i)})
	}
	// Keep training via free observations from GETs.
	for i := 10; i < 40; i++ {
		o.Classify(LinkContext{URL: htmlURL(i)})
		o.Observe(htmlURL(i), ClassHTML)
		o.Classify(LinkContext{URL: dataURL(i)})
		o.Observe(dataURL(i), ClassTarget)
	}
	// The trained model must now separate the two URL families.
	correct := 0
	for i := 100; i < 120; i++ {
		if c, _ := o.Classify(LinkContext{URL: htmlURL(i)}); c == ClassHTML {
			correct++
		}
		if c, _ := o.Classify(LinkContext{URL: dataURL(i)}); c == ClassTarget {
			correct++
		}
	}
	if correct < 36 {
		t.Errorf("trained classifier got %d/40 on held-out URLs", correct)
	}
}

func TestConfusionMatrixAccumulates(t *testing.T) {
	o := NewOnline(Config{
		BatchSize: 4,
		Head:      func(url string) int { return fakeTruth(url) },
	})
	for i := 0; i < 2; i++ {
		o.Classify(LinkContext{URL: htmlURL(i)})
		o.Classify(LinkContext{URL: dataURL(i)})
	}
	// Now classify + observe some URLs; all predictions land in the matrix.
	for i := 10; i < 20; i++ {
		o.Classify(LinkContext{URL: htmlURL(i)})
		o.Observe(htmlURL(i), ClassHTML)
	}
	conf := o.Confusion()
	if conf.Total() != 10 {
		t.Errorf("confusion total = %d, want 10 scored predictions", conf.Total())
	}
	// Predicted-Neither column must be structurally zero.
	for tr := 0; tr < 3; tr++ {
		if conf.Counts[tr][ClassNeither] != 0 {
			t.Error("classifier must never predict Neither")
		}
	}
}

func TestObserveWithoutClassifyStillTrains(t *testing.T) {
	o := NewOnline(Config{BatchSize: 2, Head: func(string) int { return ClassHTML }})
	o.Observe(dataURL(1), ClassTarget)
	o.Observe(dataURL(2), ClassTarget)
	if len(o.batch) != 0 {
		t.Error("batch must flush at size b")
	}
	if o.Refits() == 0 {
		t.Error("model must have been trained")
	}
}

func TestURLContentFeaturesIncludeContext(t *testing.T) {
	link := LinkContext{
		URL:             "https://x.org/p",
		AnchorText:      "download dataset",
		TagPath:         "html body ul.datasets li a",
		SurroundingText: "annual statistics",
	}
	urlOnly := Features(URLOnly, link)
	urlCont := Features(URLContent, link)
	if len(urlCont.IDs) <= len(urlOnly.IDs) {
		t.Error("URL_CONT must add features beyond URL_ONLY")
	}
	// The URL block comes first and unshifted; the context blocks follow in
	// ascending offset order, so the whole vector stays strictly ascending.
	n := len(urlOnly.IDs)
	if !slices.Equal(urlCont.IDs[:n], urlOnly.IDs) || !slices.Equal(urlCont.Vals[:n], urlOnly.Vals) {
		t.Error("URL_CONT must start with the URL_ONLY block")
	}
	if !slices.IsSorted(urlCont.IDs) || int(urlCont.IDs[len(urlCont.IDs)-1]) < 3*textvec.CharBigramDim {
		t.Errorf("URL_CONT blocks out of order: %v", urlCont.IDs)
	}
	if URLOnly.String() != "URL_ONLY" || URLContent.String() != "URL_CONT" {
		t.Error("feature set names must match the paper")
	}
}

func TestOracle(t *testing.T) {
	o := &Oracle{Truth: fakeTruth}
	if c, usedHead := o.Classify(LinkContext{URL: dataURL(1)}); c != ClassTarget || usedHead {
		t.Errorf("oracle target: %d %v", c, usedHead)
	}
	if c, _ := o.Classify(LinkContext{URL: htmlURL(1)}); c != ClassHTML {
		t.Errorf("oracle html: %d", c)
	}
	if c, _ := o.Classify(LinkContext{URL: "https://x.org/broken/1"}); c != ClassHTML {
		t.Errorf("oracle must route Neither to HTML, got %d", c)
	}
	o.Observe("x", ClassHTML) // must not panic
}

func TestConfusionMetrics(t *testing.T) {
	c := NewConfusion()
	// 60 correct HTML, 2 HTML→Target, 30 correct Target, 1 Target→HTML,
	// 7 Neither→HTML.
	for i := 0; i < 60; i++ {
		c.Record(ClassHTML, ClassHTML)
	}
	for i := 0; i < 2; i++ {
		c.Record(ClassHTML, ClassTarget)
	}
	for i := 0; i < 30; i++ {
		c.Record(ClassTarget, ClassTarget)
	}
	c.Record(ClassTarget, ClassHTML)
	for i := 0; i < 7; i++ {
		c.Record(ClassNeither, ClassHTML)
	}
	if c.Total() != 100 {
		t.Fatalf("total = %d", c.Total())
	}
	pct := c.Percent()
	if math.Abs(pct[ClassHTML][ClassHTML]-60) > 1e-9 {
		t.Errorf("pct[H][H] = %v", pct[ClassHTML][ClassHTML])
	}
	// MR = (2+1) / (60+2+30+1) × 100 ≈ 3.23 (Neither rows excluded).
	want := 100 * 3.0 / 93.0
	if got := c.MisclassificationRate(); math.Abs(got-want) > 1e-9 {
		t.Errorf("MR = %v, want %v", got, want)
	}
	s := c.String()
	if !strings.Contains(s, "Neither") {
		t.Error("String must render all classes")
	}
}

func TestConfusionMerge(t *testing.T) {
	a, b := NewConfusion(), NewConfusion()
	a.Record(ClassHTML, ClassHTML)
	b.Record(ClassTarget, ClassHTML)
	a.Merge(b)
	if a.Total() != 2 || a.Counts[ClassTarget][ClassHTML] != 1 {
		t.Errorf("merge result %+v", a.Counts)
	}
}

func TestConfusionIgnoresOutOfRange(t *testing.T) {
	c := NewConfusion()
	c.Record(-1, 0)
	c.Record(0, 9)
	if c.Total() != 0 {
		t.Error("out-of-range records must be dropped")
	}
}

func TestCustomModelIsUsed(t *testing.T) {
	for _, name := range learn.ModelNames {
		o := NewOnline(Config{
			Model:     learn.NewModel(name),
			BatchSize: 4,
			Head:      func(url string) int { return fakeTruth(url) },
		})
		for i := 0; i < 2; i++ {
			o.Classify(LinkContext{URL: htmlURL(i)})
			o.Classify(LinkContext{URL: dataURL(i)})
		}
		if o.InInitialPhase() {
			t.Errorf("%s: initial phase should end after batch", name)
		}
	}
}

// TestClassifyObserveAllocs: past the initial phase a link costs its two
// retained feature slices and nothing else — no per-link map, and the batch
// buffer and weight vector are reused.
func TestClassifyObserveAllocs(t *testing.T) {
	o := NewOnline(Config{BatchSize: 4, Head: fakeTruth})
	for i := 0; i < 4; i++ {
		o.Classify(LinkContext{URL: htmlURL(i)})
		o.Classify(LinkContext{URL: dataURL(i)})
	}
	if o.InInitialPhase() {
		t.Fatal("initial phase should be over")
	}
	link := LinkContext{URL: dataURL(99)}
	if got := testing.AllocsPerRun(100, func() {
		o.Classify(link)
		o.Observe(link.URL, ClassTarget)
	}); got > 2 {
		t.Errorf("Classify+Observe allocates %v times per link, want <= 2", got)
	}
}
