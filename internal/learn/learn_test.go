package learn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sbcrawl/internal/textvec"
)

// urlBatch builds a batch of labeled char-bigram examples from URL strings.
// Raw counts, as the paper's BoW encoding uses them (no normalization —
// multinomial NB in particular needs counts, not fractions).
// bigrams is the URL feature vector of s.
func bigrams(s string) textvec.Sparse { return textvec.MakeSparse(len(s)).AppendCharBigrams(s, 0) }

func urlBatch(urls []string, label int) []Example {
	out := make([]Example, len(urls))
	for i, u := range urls {
		out[i] = Example{X: bigrams(u), Y: label}
	}
	return out
}

var (
	htmlURLs = []string{
		"https://www.example.org/about.html",
		"https://www.example.org/pages/contact.html",
		"https://www.example.org/news/2024/article-1.html",
		"https://www.example.org/en/node/9961",
		"https://www.example.org/topics/health/overview",
		"https://www.example.org/fr/actualites/communique",
		"https://www.example.org/search?q=data",
		"https://www.example.org/category/statistics/page/2",
	}
	targetURLs = []string{
		"https://www.example.org/data/population.csv",
		"https://www.example.org/downloads/report-2024.pdf",
		"https://www.example.org/files/budget.xlsx",
		"https://www.example.org/data/export.csv?sep=comma",
		"https://www.example.org/datasets/trade.zip",
		"https://www.example.org/files/annex.ods",
		"https://www.example.org/stats/table7.tsv",
		"https://www.example.org/docs/whitepaper.pdf",
	}
)

func trainTestSplit() (train, test []Example) {
	all := append(urlBatch(htmlURLs, ClassHTML), urlBatch(targetURLs, ClassTarget)...)
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	cut := len(all) * 3 / 4
	return all[:cut], all[cut:]
}

func TestAllModelsLearnSeparableURLs(t *testing.T) {
	train, test := trainTestSplit()
	for _, name := range ModelNames {
		m := NewModel(name)
		// Several mini-batches, as Algorithm 2 would deliver them.
		for i := 0; i < len(train); i += 4 {
			end := i + 4
			if end > len(train) {
				end = len(train)
			}
			m.PartialFit(train[i:end])
		}
		// Re-fit once more on the full set to emulate continued online
		// training, then check training-set fit and held-out accuracy.
		m.PartialFit(train)
		correct := 0
		for _, ex := range append(append([]Example{}, train...), test...) {
			if m.Predict(ex.X) == ex.Y {
				correct++
			}
		}
		total := len(train) + len(test)
		if acc := float64(correct) / float64(total); acc < 0.8 {
			t.Errorf("%s: accuracy %.2f on separable URL data, want ≥ 0.8", name, acc)
		}
	}
}

func TestUntrainedModelsPredictHTML(t *testing.T) {
	// Before any training the safe default is ClassHTML (the frontier class);
	// all margin models score 0 which maps to HTML.
	x := bigrams("https://x.org/file.csv")
	for _, name := range ModelNames {
		m := NewModel(name)
		if got := m.Predict(x); got != ClassHTML {
			t.Errorf("%s: untrained Predict = %d, want ClassHTML", name, got)
		}
	}
}

func TestOnlineAdaptationToDistributionShift(t *testing.T) {
	// The paper motivates online training by URL-format changes in newly
	// discovered site areas. Train on one URL style, shift to another, and
	// verify the model adapts after a few batches.
	m := NewLogisticRegression()
	oldHTML := urlBatch([]string{
		"https://x.org/a.html", "https://x.org/b.html", "https://x.org/c.html",
	}, ClassHTML)
	oldTgt := urlBatch([]string{
		"https://x.org/a.csv", "https://x.org/b.csv", "https://x.org/c.csv",
	}, ClassTarget)
	for i := 0; i < 5; i++ {
		m.PartialFit(oldHTML)
		m.PartialFit(oldTgt)
	}
	// New site area: extension-less target URLs under /dl/.
	newTgt := urlBatch([]string{
		"https://x.org/dl/12345", "https://x.org/dl/23456", "https://x.org/dl/34567",
		"https://x.org/dl/45678", "https://x.org/dl/56789",
	}, ClassTarget)
	newHTML := urlBatch([]string{
		"https://x.org/page/12345", "https://x.org/page/23456", "https://x.org/page/34567",
		"https://x.org/page/45678", "https://x.org/page/56789",
	}, ClassHTML)
	for i := 0; i < 10; i++ {
		m.PartialFit(newTgt)
		m.PartialFit(newHTML)
	}
	probe := bigrams("https://x.org/dl/99999")
	if m.Predict(probe) != ClassTarget {
		t.Error("model failed to adapt to the new extension-less target style")
	}
}

func TestNaiveBayesCountsAccumulate(t *testing.T) {
	m := NewNaiveBayes()
	m.PartialFit([]Example{{X: textvec.Sparse{}.Append(1, 2), Y: ClassTarget}})
	m.PartialFit([]Example{{X: textvec.Sparse{}.Append(1, 3), Y: ClassTarget}})
	if m.featCount[ClassTarget][1] != 5 {
		t.Errorf("feature count = %v, want 5", m.featCount[ClassTarget][1])
	}
	if m.classCount[ClassTarget] != 2 {
		t.Errorf("class count = %v, want 2", m.classCount[ClassTarget])
	}
}

func TestNaiveBayesIgnoresNegativeCounts(t *testing.T) {
	m := NewNaiveBayes()
	m.PartialFit([]Example{{X: textvec.Sparse{}.Append(1, -5).Append(2, 1), Y: ClassTarget}})
	if m.featCount[ClassTarget][1] != 0 {
		t.Error("negative counts must be clamped for multinomial NB")
	}
}

func TestPassiveAggressiveIsPassiveOnMargin(t *testing.T) {
	m := NewPassiveAggressive()
	x := textvec.Sparse{}.Append(0, 1)
	m.PartialFit([]Example{{X: x, Y: ClassTarget}})
	w0 := m.w[0]
	// Score is now comfortably above 1? If so, a repeat example changes
	// nothing (passive). PA-I first step gives margin exactly 1.
	m.PartialFit([]Example{{X: x, Y: ClassTarget}})
	if m.w[0] != w0 {
		t.Errorf("PA must be passive when margin ≥ 1: w went %v → %v", w0, m.w[0])
	}
}

func TestPassiveAggressiveStepCap(t *testing.T) {
	m := NewPassiveAggressive()
	m.C = 0.01
	x := textvec.Sparse{}.Append(0, 1)
	m.PartialFit([]Example{{X: x, Y: ClassTarget}})
	// tau capped at C: weight update is at most C*1.
	if m.w[0] > 0.01+1e-12 {
		t.Errorf("PA-I step %v exceeds cap C=0.01", m.w[0])
	}
}

// score is the real-valued confidence every model family computes for
// ClassTarget; Predict thresholds it.
func score(m Model, x textvec.Sparse) float64 {
	return m.(interface{ Score(textvec.Sparse) float64 }).Score(x)
}

func TestNewModelUnknown(t *testing.T) {
	if NewModel("DeepTransformer") != nil {
		t.Error("unknown model name must return nil")
	}
}

func TestDeterministicTraining(t *testing.T) {
	train, _ := trainTestSplit()
	for _, name := range ModelNames {
		a, b := NewModel(name), NewModel(name)
		a.PartialFit(train)
		b.PartialFit(train)
		probe := bigrams("https://www.example.org/some/new.csv")
		if score(a, probe) != score(b, probe) {
			t.Errorf("%s: training is not deterministic", name)
		}
	}
}

// Property: predictions are always a valid class label.
func TestPredictRangeProperty(t *testing.T) {
	train, _ := trainTestSplit()
	models := make([]Model, 0, len(ModelNames))
	for _, n := range ModelNames {
		m := NewModel(n)
		m.PartialFit(train)
		models = append(models, m)
	}
	f := func(s string) bool {
		x := bigrams(s)
		for _, m := range models {
			if c := m.Predict(x); c != ClassHTML && c != ClassTarget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for the margin models, Predict agrees with the sign of Score.
func TestScorePredictConsistencyProperty(t *testing.T) {
	train, _ := trainTestSplit()
	for _, name := range ModelNames {
		m := NewModel(name)
		m.PartialFit(train)
		f := func(s string) bool {
			x := bigrams(s)
			want := ClassHTML
			if score(m, x) > 0 {
				want = ClassTarget
			}
			return m.Predict(x) == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func BenchmarkLogisticPartialFit(b *testing.B) {
	train, _ := trainTestSplit()
	m := NewLogisticRegression()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.PartialFit(train)
	}
}

// TestScoreAllocs: scoring is an index loop over the two slices — no map, no
// key copy, no sort.
func TestScoreAllocs(t *testing.T) {
	train, _ := trainTestSplit()
	x := bigrams("https://www.example.org/data/file.csv")
	for _, name := range ModelNames {
		m := NewModel(name)
		m.PartialFit(train)
		if got := testing.AllocsPerRun(100, func() { score(m, x) }); got != 0 {
			t.Errorf("%s: Score allocates %v times per call, want 0", name, got)
		}
	}
}

// TestPartialFitAllocsSteadyState: once the flat tables have grown to the
// highest feature ID in the stream, training allocates nothing.
func TestPartialFitAllocsSteadyState(t *testing.T) {
	train, _ := trainTestSplit()
	for _, name := range ModelNames {
		m := NewModel(name)
		m.PartialFit(train) // grows the weight vector / count tables
		if got := testing.AllocsPerRun(100, func() { m.PartialFit(train) }); got != 0 {
			t.Errorf("%s: steady-state PartialFit allocates %v times per batch, want 0", name, got)
		}
	}
}
