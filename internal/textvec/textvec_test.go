package textvec

import (
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestNGramsOrders(t *testing.T) {
	tokens := []string{"html", "body", "a"}
	uni := NGrams(tokens, 1)
	if len(uni) != 3 || uni[0] != "html" {
		t.Errorf("1-grams = %v", uni)
	}
	bi := NGrams(tokens, 2)
	// [BOS] html, html body, body a, a [EOS]
	if len(bi) != 4 {
		t.Fatalf("2-grams = %v, want 4 grams", bi)
	}
	if bi[0] != BOS+"\x1f"+"html" || bi[3] != "a\x1f"+EOS {
		t.Errorf("2-gram framing wrong: %v", bi)
	}
	tri := NGrams(tokens, 3)
	if len(tri) != 3 {
		t.Errorf("3-grams = %v, want 3 grams", tri)
	}
}

func TestNGramsPreserveOrder(t *testing.T) {
	a := NGrams([]string{"x", "y"}, 2)
	b := NGrams([]string{"y", "x"}, 2)
	if strings.Join(a, "|") == strings.Join(b, "|") {
		t.Error("n-grams must be order-sensitive (the paper stresses order matters)")
	}
}

func TestNGramsShortSequence(t *testing.T) {
	out := NGrams([]string{}, 3)
	if len(out) != 1 {
		t.Errorf("short framed sequence should yield one joined gram, got %v", out)
	}
}

func TestVocabStableIDs(t *testing.T) {
	v := NewVocab()
	a := v.ID("alpha")
	b := v.ID("beta")
	if a2 := v.ID("alpha"); a2 != a {
		t.Errorf("ID not stable: %d then %d", a, a2)
	}
	if a == b {
		t.Error("distinct grams must get distinct IDs")
	}
	if _, ok := v.ids["gamma"]; ok {
		t.Error("an unseen gram must not be in the vocabulary")
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
}

func TestBoWCounts(t *testing.T) {
	v := NewVocab()
	p := v.BoW([]string{"a", "b", "a", "c", "a"})
	if len(p) != 3 {
		t.Fatalf("BoW dim = %d, want 3", len(p))
	}
	id := v.ids["a"]
	if p[id] != 3 {
		t.Errorf("count of a = %v, want 3", p[id])
	}
}

// TestPaperHashExample checks the exact worked example of Section 3.2:
// h(2) = ⌊(766245317·2 mod 2048)/512⌋ = 1 with w=11, m=2.
func TestPaperHashExample(t *testing.T) {
	pr := NewProjector(2, 11, 766245317)
	if got := pr.Hash(2); got != 1 {
		t.Errorf("h(2) = %d, want 1 (paper example)", got)
	}
	// The figure also states h(4)=h(8)=h(9)=3.
	for _, x := range []int{4, 8, 9} {
		if got := pr.Hash(x); got != 3 {
			t.Errorf("h(%d) = %d, want 3 (paper example)", x, got)
		}
	}
}

// TestPaperProjectionExample reproduces the full Figure 3 walk-through:
// an 11-dimensional BoW [1 1 1 0 0 1 2 1 1 1 1] projects into D=4 with
// p_D[3] = mean of colliding positions ≈ 0.67.
func TestPaperProjectionExample(t *testing.T) {
	pr := NewProjector(2, 11, 766245317)
	p := []float64{1, 1, 1, 0, 0, 1, 2, 1, 1, 1, 1}
	out := pr.Project(p)
	if len(out) != 4 {
		t.Fatalf("projected dim = %d, want 4", len(out))
	}
	// Position 3's bucket receives p[4], p[8], p[9] = 0, 1, 1 → mean 2/3.
	if math.Abs(out[3]-2.0/3.0) > 1e-9 {
		t.Errorf("p_D[3] = %v, want 0.667 (mean-on-collision rule)", out[3])
	}
}

func TestProjectorPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewProjector(5,5) must panic: w must exceed m")
		}
	}()
	NewProjector(5, 5, 0)
}

// Property: every hash lands in [0, D) and projection output is always
// exactly D wide, whatever the input dimension.
func TestProjectionBoundsProperty(t *testing.T) {
	pr := NewProjector(12, 15, 0)
	f := func(positions []uint16) bool {
		for _, x := range positions {
			h := pr.Hash(int(x))
			if h < 0 || h >= pr.Dim() {
				return false
			}
		}
		p := make([]float64, len(positions)%500+1)
		for i := range p {
			p[i] = float64(i % 7)
		}
		out := pr.Project(p)
		return len(out) == pr.Dim()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: projection is deterministic.
func TestProjectionDeterministicProperty(t *testing.T) {
	pr := NewProjector(6, 13, 0)
	f := func(vals []float64) bool {
		a := pr.Project(vals)
		b := pr.Project(vals)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCosine(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{1, 0}, 1},
		{[]float64{1, 0}, []float64{0, 1}, 0},
		{[]float64{1, 1}, []float64{1, 1}, 1},
		{[]float64{0, 0}, []float64{1, 1}, 0},
		{[]float64{1, 2, 3}, []float64{2, 4, 6}, 1},
	}
	for _, c := range cases {
		if got := Cosine(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Cosine(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTagPathVectorizerSimilarity(t *testing.T) {
	tv := NewTagPathVectorizer(2, 12, 15)
	pathA := []string{"html", "body", "div#main", "ul.datasets", "li", "a"}
	pathA2 := []string{"html", "body", "div#main", "ul.datasets", "li", "a.dl"}
	pathB := []string{"html", "body", "nav", "ul.menu", "li", "a"}
	va := tv.Vectorize(pathA)
	va2 := tv.Vectorize(pathA2)
	vb := tv.Vectorize(pathB)
	simAA := Cosine(va, va2)
	simAB := Cosine(va, vb)
	if simAA <= simAB {
		t.Errorf("similar paths must be more similar: sim(A,A')=%v vs sim(A,B)=%v", simAA, simAB)
	}
	if got := Cosine(va, tv.Vectorize(pathA)); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical path must be self-similar at 1, got %v", got)
	}
	if tv.Dim() != 4096 {
		t.Errorf("Dim = %d, want 4096 for m=12", tv.Dim())
	}
}

func TestVectorizerVocabGrows(t *testing.T) {
	tv := NewTagPathVectorizer(2, 8, 12)
	before := tv.VocabLen()
	tv.Vectorize([]string{"html", "body", "a"})
	mid := tv.VocabLen()
	tv.Vectorize([]string{"html", "body", "a"})
	after := tv.VocabLen()
	if mid <= before {
		t.Error("vocabulary must grow on first path")
	}
	if after != mid {
		t.Error("vocabulary must not grow on a repeated path")
	}
}

// valueOf returns the value stored for a feature ID, 0 when absent.
func valueOf(v Sparse, id int) float64 {
	if k, ok := slices.BinarySearch(v.IDs, int32(id)); ok {
		return v.Vals[k]
	}
	return 0
}

// checkSorted fails unless v honours the Sparse contract: parallel slices,
// IDs strictly ascending.
func checkSorted(t *testing.T, v Sparse) {
	t.Helper()
	if len(v.IDs) != len(v.Vals) {
		t.Fatalf("%d IDs for %d values", len(v.IDs), len(v.Vals))
	}
	for k := 1; k < len(v.IDs); k++ {
		if v.IDs[k-1] >= v.IDs[k] {
			t.Fatalf("IDs not strictly ascending at %d: %v", k, v.IDs)
		}
	}
}

// charBigrams is the URL feature vector of s.
func charBigrams(s string) Sparse { return MakeSparse(len(s)).AppendCharBigrams(s, 0) }

func TestCharBigrams(t *testing.T) {
	v := charBigrams("https://www.A.com/data/file.csv")
	if len(v.IDs) == 0 {
		t.Fatal("no bigrams extracted")
	}
	checkSorted(t, v)
	ht := charClass('h')*charClassCount + charClass('t')
	if valueOf(v, ht) != 1 {
		t.Errorf("bigram 'ht' should be present once, got %v", valueOf(v, ht))
	}
	tt := charClass('t')*charClassCount + charClass('t')
	if valueOf(v, tt) != 1 {
		t.Errorf("bigram 'tt' should be present once, got %v", valueOf(v, tt))
	}
	ww := charClass('w')*charClassCount + charClass('w')
	if valueOf(v, ww) != 2 {
		t.Errorf("bigram 'ww' occurs twice in www, got %v", valueOf(v, ww))
	}
}

func TestCharBigramsNonASCII(t *testing.T) {
	// Multilingual URL (e.g. soumu.go.jp pages with encoded Japanese) must
	// still yield features, via the catch-all bucket.
	v := charBigrams("https://例え.jp/データ")
	if len(v.IDs) == 0 {
		t.Error("non-ASCII input must still produce features")
	}
	checkSorted(t, v)
}

func TestCharBigramsShortStrings(t *testing.T) {
	for _, s := range []string{"", "a"} {
		if v := charBigrams(s); len(v.IDs) != 0 || len(v.Vals) != 0 {
			t.Errorf("CharBigrams(%q) = %v, want no entries", s, v)
		}
	}
}

func TestAppendCharBigramsWithOffset(t *testing.T) {
	x := charBigrams("abab")
	x = x.AppendCharBigrams("ab", 1*CharBigramDim)
	x = x.AppendCharBigrams("", 2*CharBigramDim)
	x = x.AppendCharBigrams("abb", 3*CharBigramDim)
	x = x.Append(4*CharBigramDim, 7)
	checkSorted(t, x)
	ab := charClass('a')*charClassCount + charClass('b')
	ba := charClass('b')*charClassCount + charClass('a')
	bb := charClass('b')*charClassCount + charClass('b')
	want := Sparse{
		IDs:  []int32{int32(ab), int32(ba), int32(CharBigramDim + ab), int32(3*CharBigramDim + ab), int32(3*CharBigramDim + bb), int32(4 * CharBigramDim)},
		Vals: []float64{2, 1, 1, 1, 1, 7},
	}
	if !slices.Equal(x.IDs, want.IDs) || !slices.Equal(x.Vals, want.Vals) {
		t.Errorf("concatenated blocks = %v, want %v", x, want)
	}
}

// TestCharBigramsAllocs: the vector is exactly its two retained slices — no
// scratch, no map, no sort buffer.
func TestCharBigramsAllocs(t *testing.T) {
	url := "https://www.justice.gouv.fr/documentation/bulletin-officiel/file-2024-03.csv"
	if got := testing.AllocsPerRun(100, func() { _ = charBigrams(url) }); got > 2 {
		t.Errorf("CharBigrams allocates %v times per call, want <= 2", got)
	}
}

// sortedBigrams is the sort-then-run-length construction the bitmap walk
// replaced, kept as the oracle.
func sortedBigrams(s string, offset int) Sparse {
	var ids []int32
	for i := 0; i+1 < len(s); i++ {
		ids = append(ids, int32(offset+charClass(s[i])*charClassCount+charClass(s[i+1])))
	}
	slices.Sort(ids)
	var x Sparse
	for i := 0; i < len(ids); {
		run := i + 1
		for run < len(ids) && ids[run] == ids[i] {
			run++
		}
		x = x.Append(int(ids[i]), float64(run-i))
		i = run
	}
	return x
}

// TestCharBigramsEdgeCounts: the bitmap walk against the sorting oracle at
// the edges of the block — every ID present, one ID counted past 16 bits,
// bytes outside printable ASCII, and each URL_CONT block offset.
func TestCharBigramsEdgeCounts(t *testing.T) {
	// One byte per class: printable ASCII, then 0xFF for the catch-all.
	var classBytes []byte
	for b := byte(0x20); b < 0x7F; b++ {
		classBytes = append(classBytes, b)
	}
	classBytes = append(classBytes, 0xFF)
	var every []byte
	for _, a := range classBytes {
		for _, b := range classBytes {
			every = append(every, a, b)
		}
	}
	cases := map[string]string{
		"every class pair": string(every),
		"long run":         strings.Repeat("w", 1<<17),
		"non-ASCII":        "\x00\x1f\x7f\x80\xff" + "https://例え.jp/データ\n\t",
		"url":              "https://www.justice.gouv.fr/documentation/bulletin-officiel/file-2024-03.csv",
	}
	for name, s := range cases {
		for block := 0; block < 4; block++ {
			offset := block * CharBigramDim
			got := Sparse{}.AppendCharBigrams(s, offset)
			want := sortedBigrams(s, offset)
			if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Vals, want.Vals) {
				t.Errorf("%s at offset %d: %d entries, oracle %d (or values differ)", name, offset, len(got.IDs), len(want.IDs))
			}
		}
	}
	if v := charBigrams(string(every)); len(v.IDs) != CharBigramDim {
		t.Errorf("every class pair: %d distinct IDs, want %d", len(v.IDs), CharBigramDim)
	}
	if v := charBigrams(strings.Repeat("w", 1<<17)); len(v.IDs) != 1 || v.Vals[0] != 1<<17-1 {
		t.Errorf("long run = %v entries %v, want one entry counting %d", v.IDs, v.Vals, 1<<17-1)
	}
	catchAll := int32((charClassCount-1)*charClassCount + charClassCount - 1)
	if v := charBigrams("\x00\x80\xff\x7f"); len(v.IDs) != 1 || v.IDs[0] != catchAll || v.Vals[0] != 3 {
		t.Errorf("non-ASCII bytes = %v %v, want the catch-all pair %d three times", v.IDs, v.Vals, catchAll)
	}
	// The four blocks chained, as URL_CONT lays them out.
	var got, want Sparse
	for block, s := range []string{cases["url"], cases["non-ASCII"], "", cases["every class pair"]} {
		got = got.AppendCharBigrams(s, block*CharBigramDim)
		w := sortedBigrams(s, block*CharBigramDim)
		want.IDs, want.Vals = append(want.IDs, w.IDs...), append(want.Vals, w.Vals...)
	}
	if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Vals, want.Vals) {
		t.Error("four chained blocks differ from the oracle")
	}
}

// TestAppendCharBigramsAllocs: appending into spare capacity allocates
// nothing — the bitmap and rank tables stay on the stack.
func TestAppendCharBigramsAllocs(t *testing.T) {
	url := "https://www.justice.gouv.fr/documentation/bulletin-officiel/file-2024-03.csv"
	x := MakeSparse(4 * len(url))
	if got := testing.AllocsPerRun(100, func() {
		x.IDs, x.Vals = x.IDs[:0], x.Vals[:0]
		x = x.AppendCharBigrams(url, 0).AppendCharBigrams(url, CharBigramDim)
	}); got != 0 {
		t.Errorf("AppendCharBigrams into spare capacity allocates %v times per call, want 0", got)
	}
}

// Property: CharBigrams of s has exactly max(len(s)-1, 0) total counts.
func TestCharBigramCountProperty(t *testing.T) {
	f := func(s string) bool {
		v := charBigrams(s)
		var total float64
		for _, c := range v.Vals {
			total += c
		}
		want := len(s) - 1
		if want < 0 {
			want = 0
		}
		return total == float64(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkVectorizeTagPath(b *testing.B) {
	tv := NewTagPathVectorizer(2, 12, 15)
	path := []string{"html", "body", "div#container", "div", "div", "div", "ul", "li.datasets", "a.dataset"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tv.Vectorize(path)
	}
}

func BenchmarkVectorizeSparseTagPath(b *testing.B) {
	tv := NewTagPathVectorizer(2, 12, 15)
	path := []string{"html", "body", "div#container", "div", "div", "div", "ul", "li.datasets", "a.dataset"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = tv.VectorizeSparse(path)
	}
}

func BenchmarkCharBigrams(b *testing.B) {
	url := "https://www.justice.gouv.fr/documentation/bulletin-officiel/file-2024-03.csv"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = charBigrams(url)
	}
}

// NewProjector must reject w ≥ 64: uint64(1) << 64 overflows to a zero
// modulus, making every Hash a division by zero. (Regression test.)
func TestProjectorPanicsOnOverflowingW(t *testing.T) {
	for _, w := range []uint{64, 65, 100} {
		func(w uint) {
			defer func() {
				if recover() == nil {
					t.Errorf("NewProjector(12, %d) must panic: 2^w overflows uint64", w)
				}
			}()
			NewProjector(12, w, 0)
		}(w)
	}
	// The largest valid w still works.
	pr := NewProjector(12, 63, 0)
	if h := pr.Hash(12345); h < 0 || h >= pr.Dim() {
		t.Errorf("Hash out of range at w=63: %d", h)
	}
}

// The reusable-hasher Vectorize must be bit-identical to the compositional
// NGrams → BoW → Project pipeline, for every n-gram order and interleaving.
func TestVectorizeMatchesCompositionalPipeline(t *testing.T) {
	paths := [][]string{
		{"html", "body", "div#main", "ul.datasets", "li", "a"},
		{"html", "body", "nav", "ul.menu", "li", "a"},
		{"html", "body", "div#main", "ul.datasets", "li", "a.dl"},
		{"a"},
		{},
		{"html", "body", "div#main", "ul.datasets", "li", "a"}, // repeat
	}
	for _, n := range []int{1, 2, 3, 9} {
		tv := NewTagPathVectorizer(n, 8, 12)
		vocab := NewVocab()
		proj := NewProjector(8, 12, DefaultPi)
		for _, path := range paths {
			got := tv.Vectorize(path)
			want := proj.Project(vocab.BoW(NGrams(path, n)))
			// Project returns len = D always; compare element-wise.
			if len(got) != len(want) {
				t.Fatalf("n=%d: dim %d vs %d", n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d path %v: out[%d] = %v, want %v (must be bit-identical)",
						n, path, i, got[i], want[i])
				}
			}
		}
		if tv.VocabLen() != vocab.Len() {
			t.Errorf("n=%d: vocab sizes diverged: %d vs %d", n, tv.VocabLen(), vocab.Len())
		}
	}
}

// VectorizeSparse emits exactly the non-zeros of the compositional
// pipeline's vector, bit for bit, in strictly ascending index order — the
// order the consumers' bit-identity argument rests on — for every n-gram
// order, including repeated grams (several grams in one bucket) and the
// empty path.
func TestVectorizeSparseMatchesCompositionalPipeline(t *testing.T) {
	paths := [][]string{
		{"html", "body", "div#main", "ul.datasets", "li", "a"},
		{"html", "body", "div", "div", "div", "div", "ul", "li", "a"}, // repeated grams
		{"html", "body", "nav", "ul.menu", "li", "a"},
		{"a"},
		{},
		{"html", "body", "div#main", "ul.datasets", "li", "a"}, // repeat
	}
	for _, n := range []int{1, 2, 3, 9} {
		// m=4: 16 buckets, so distinct grams collide and values are means.
		tv := NewTagPathVectorizer(n, 4, 8)
		vocab := NewVocab()
		proj := NewProjector(4, 8, DefaultPi)
		for _, path := range paths {
			idx, val := tv.VectorizeSparse(path)
			want := proj.Project(vocab.BoW(NGrams(path, n)))
			if len(idx) != len(val) {
				t.Fatalf("n=%d path %v: %d indices, %d values", n, path, len(idx), len(val))
			}
			k := 0
			for i, w := range want {
				if w == 0 {
					continue
				}
				if k == len(idx) || idx[k] != i || math.Float64bits(val[k]) != math.Float64bits(w) {
					t.Fatalf("n=%d path %v: sparse %v %v, want entry %d to be bucket %d = %v", n, path, idx, val, k, i, w)
				}
				k++
			}
			if k != len(idx) {
				t.Fatalf("n=%d path %v: sparse %v %v has %d entries beyond the %d non-zeros", n, path, idx, val, len(idx)-k, k)
			}
		}
	}
}

// Steady-state VectorizeSparse allocates nothing: the output slices are the
// vectorizer's scratch.
func TestVectorizeSparseAllocs(t *testing.T) {
	tv := NewTagPathVectorizer(2, 12, 15)
	path := []string{"html", "body", "div#container", "ul", "li.datasets", "a.dataset"}
	tv.VectorizeSparse(path) // warm: vocabulary and scratch grow here
	if allocs := testing.AllocsPerRun(200, func() {
		_, _ = tv.VectorizeSparse(path)
	}); allocs != 0 {
		t.Errorf("steady-state VectorizeSparse allocates %v per call, want 0", allocs)
	}
}

// Steady-state Vectorize — the dense adapter — allocates only the returned
// vector: grams resolve against the vocabulary by byte view, and the
// collision counts are computed in closed form (no per-call O(vocab)
// scratch).
func TestVectorizeAllocsSteadyState(t *testing.T) {
	tv := NewTagPathVectorizer(2, 12, 15)
	path := []string{"html", "body", "div#container", "ul", "li.datasets", "a.dataset"}
	tv.Vectorize(path) // warm: vocabulary and scratch grow here
	allocs := testing.AllocsPerRun(200, func() {
		_ = tv.Vectorize(path)
	})
	if allocs > 1 {
		t.Errorf("steady-state Vectorize allocates %v per call, want 1 (the output vector)", allocs)
	}
}

// TestDefaultPiIsOdd: collisions inverts Π mod 2^w, which needs Π odd.
func TestDefaultPiIsOdd(t *testing.T) {
	if DefaultPi%2 == 0 {
		t.Fatalf("DefaultPi = %d is even: x ↦ Π·x mod 2^w is not a bijection", DefaultPi)
	}
}

// TestCollisionsMatchIncrementalCount: the closed-form collision count of
// every bucket equals the table the vectorizer used to keep — one counter per
// bucket, incremented at the hash of each new vocabulary ID — at every
// vocabulary size V from 0 to past one full residue cycle (2^w + 17).
func TestCollisionsMatchIncrementalCount(t *testing.T) {
	for _, mw := range [][2]uint{{12, 15}, {8, 12}, {6, 9}, {4, 8}} {
		m, w := mw[0], mw[1]
		tv := NewTagPathVectorizer(2, m, w)
		count := make([]int, tv.Dim())
		for v := 0; v <= 1<<w+17; v++ {
			for j := range count {
				if got := tv.collisions(j); got != count[j] {
					t.Fatalf("m=%d w=%d V=%d: collisions(%d) = %d, the incremental table holds %d", m, w, v, j, got, count[j])
				}
			}
			tv.vocab.ids[strconv.Itoa(v)] = v
			count[tv.proj.Hash(v)]++
		}
	}
}

// TestNewTagPathVectorizerAlloc: a vectorizer is built without a D-wide
// table — under 1 KB at the paper's D = 4096, where the bucket table alone
// was 16 KB.
func TestNewTagPathVectorizerAlloc(t *testing.T) {
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		sinkVectorizer = NewTagPathVectorizer(2, 12, 15)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<10 {
		t.Errorf("NewTagPathVectorizer allocates %d bytes, want < 1 KB", per)
	}
}

var sinkVectorizer *TagPathVectorizer

// VocabLen returns the current dynamic vocabulary size.
func (tv *TagPathVectorizer) VocabLen() int { return tv.vocab.Len() }

// Cosine returns the cosine similarity of two equal-length vectors, or 0
// when either has zero norm.
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// drainVocabs empties the vocabulary free list.
func drainVocabs() {
	for len(vocabFree) > 0 {
		<-vocabFree
	}
}

// TestReleasedVocabIsEmpty: Release parks the vocabulary map cleared — no
// gram string of the paths it numbered — and the next vectorizer takes it and
// numbers grams, and so builds vectors, exactly as one on a new map does.
func TestReleasedVocabIsEmpty(t *testing.T) {
	defer drainVocabs()
	paths := [][]string{{"html", "body", "div", "a"}, {"html", "body", "ul", "li", "a"}, {"html", "body", "a"}}
	vectors := func(tv *TagPathVectorizer) [][]float64 {
		var out [][]float64
		for _, p := range paths {
			out = append(out, tv.Vectorize(p))
		}
		return out
	}
	drainVocabs()
	want := vectors(NewTagPathVectorizer(2, 8, 12))

	used := NewTagPathVectorizer(2, 8, 12)
	used.Vectorize([]string{"html", "body", "table", "tr", "td", "a"})
	parked := used.vocab.ids
	used.Release()
	if used.vocab != nil || len(vocabFree) != 1 {
		t.Fatalf("after Release: vocabulary %v, %d parked", used.vocab, len(vocabFree))
	}
	if len(parked) != 0 {
		t.Fatalf("the parked vocabulary holds %d grams of the vectorizer that released it", len(parked))
	}
	reused := NewTagPathVectorizer(2, 8, 12)
	if len(vocabFree) != 0 {
		t.Fatal("NewTagPathVectorizer did not take the parked vocabulary")
	}
	got := vectors(reused)
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("path %d on a reused vocabulary: %v, on a new one %v", i, got[i], want[i])
		}
	}
}

// TestOutsizedVocabIsNotParked: a vocabulary grown past maxParkedVocab grams
// is left to the GC, since a cleared map keeps its buckets and a free list
// never lets go.
func TestOutsizedVocabIsNotParked(t *testing.T) {
	defer drainVocabs()
	drainVocabs()
	tv := NewTagPathVectorizer(1, 8, 12)
	for i := 0; tv.VocabLen() <= maxParkedVocab; i++ {
		tv.VectorizeSparse([]string{"t" + strconv.Itoa(i)})
	}
	tv.Release()
	if len(vocabFree) != 0 {
		t.Errorf("a vocabulary of %d grams was parked", maxParkedVocab+1)
	}
}
