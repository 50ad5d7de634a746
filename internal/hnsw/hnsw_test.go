package hnsw

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func randomUnitVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	var n float64
	for i := range v {
		v[i] = rng.NormFloat64()
		n += v[i] * v[i]
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
	return v
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// searchDense returns up to k approximate nearest neighbours of the dense
// vector q, most similar first: the k-wide search NearestSparse runs at 1.
func searchDense(ix *Index, q []float64, k int) []Result {
	idx, val := ix.nonZeros(q)
	cands := ix.search(idx, val, k)
	if len(cands) == 0 {
		return nil
	}
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = Result{ID: c.id, Similarity: c.sim}
	}
	return out
}

func TestEmptyIndex(t *testing.T) {
	ix := New(DefaultConfig())
	if _, ok := ix.Nearest([]float64{1, 2}); ok {
		t.Error("Nearest on empty index must report !ok")
	}
	if res := searchDense(ix, []float64{1}, 5); res != nil {
		t.Errorf("Search on empty index = %v, want nil", res)
	}
}

func TestSingleElement(t *testing.T) {
	ix := New(DefaultConfig())
	id := ix.Add([]float64{1, 0, 0})
	got, ok := ix.Nearest([]float64{0.9, 0.1, 0})
	if !ok || got.ID != id {
		t.Fatalf("Nearest = %+v ok=%v", got, ok)
	}
	if got.Similarity < 0.98 {
		t.Errorf("similarity = %v, want high", got.Similarity)
	}
}

func TestExactMatchFound(t *testing.T) {
	ix := New(DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	vecs := make([][]float64, 50)
	for i := range vecs {
		vecs[i] = randomUnitVec(rng, 16)
		ix.Add(vecs[i])
	}
	for i, v := range vecs {
		got, ok := ix.Nearest(v)
		if !ok {
			t.Fatal("no result")
		}
		if got.Similarity < 1-1e-9 {
			t.Errorf("query %d: exact vector similarity %v, want 1", i, got.Similarity)
		}
	}
}

// TestRecallAgainstBruteForce checks that HNSW top-1 recall on random data
// stays high (this is the property the action index relies on).
func TestRecallAgainstBruteForce(t *testing.T) {
	const (
		n       = 400
		dim     = 32
		queries = 100
	)
	rng := rand.New(rand.NewSource(42))
	ix := New(Config{M: 12, EfConstruction: 96, EfSearch: 64, Seed: 9})
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = randomUnitVec(rng, dim)
		ix.Add(vecs[i])
	}
	hits := 0
	for q := 0; q < queries; q++ {
		query := randomUnitVec(rng, dim)
		best, bestSim := -1, -2.0
		for i, v := range vecs {
			if s := cosine(query, v); s > bestSim {
				best, bestSim = i, s
			}
		}
		got, ok := ix.Nearest(query)
		if !ok {
			t.Fatal("no result")
		}
		if got.ID == best || got.Similarity >= bestSim-1e-9 {
			hits++
		}
	}
	if recall := float64(hits) / queries; recall < 0.9 {
		t.Errorf("top-1 recall = %v, want >= 0.9", recall)
	}
}

func TestSearchOrderAndK(t *testing.T) {
	ix := New(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		ix.Add(randomUnitVec(rng, 8))
	}
	q := randomUnitVec(rng, 8)
	res := searchDense(ix, q, 10)
	if len(res) != 10 {
		t.Fatalf("got %d results, want 10", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Similarity > res[i-1].Similarity+1e-12 {
			t.Errorf("results not sorted: %v then %v", res[i-1].Similarity, res[i].Similarity)
		}
	}
}

func TestUpdateMovesCentroid(t *testing.T) {
	ix := New(DefaultConfig())
	a := ix.Add([]float64{1, 0})
	ix.Add([]float64{0, 1})
	// Drift a towards (0.6, 0.8); queries near the new direction must find it.
	ix.Update(a, []float64{0.6, 0.8})
	got, _ := ix.Nearest([]float64{0.6, 0.8})
	if got.ID != a {
		t.Errorf("after update, nearest = %d, want %d", got.ID, a)
	}
	if math.Abs(got.Similarity-1) > 1e-9 {
		t.Errorf("similarity to updated vector = %v, want 1", got.Similarity)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() []Result {
		ix := New(Config{M: 8, EfConstruction: 32, EfSearch: 16, Seed: 5})
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 80; i++ {
			ix.Add(randomUnitVec(rng, 8))
		}
		return searchDense(ix, randomUnitVec(rng, 8), 5)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("different result counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("non-deterministic result %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestZeroVectorHandled(t *testing.T) {
	ix := New(DefaultConfig())
	ix.Add([]float64{0, 0, 0})
	ix.Add([]float64{1, 0, 0})
	got, ok := ix.Nearest([]float64{1, 0, 0})
	if !ok || got.Similarity < 1-1e-9 {
		t.Errorf("zero vectors must not break search: %+v", got)
	}
}

// Property: Search never returns more than k results, never duplicates IDs,
// and all IDs are valid.
func TestSearchInvariantProperty(t *testing.T) {
	ix := New(Config{M: 6, EfConstruction: 24, EfSearch: 12, Seed: 2})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		ix.Add(randomUnitVec(rng, 6))
	}
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		q := randomUnitVec(rand.New(rand.NewSource(seed)), 6)
		res := searchDense(ix, q, k)
		if len(res) > k {
			return false
		}
		seen := map[int]bool{}
		for _, r := range res {
			if r.ID < 0 || r.ID >= ix.Len() || seen[r.ID] {
				return false
			}
			seen[r.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// tagPathLike returns n sparse vectors shaped like hash-projected tag
// paths at D = 4096: families sharing a 7-bucket trunk (html, body, the
// page skeleton) and differing in one or two leaf buckets, values 1 or 1/2
// (a collision mean) — the only shape the crawler ever stores or queries.
func tagPathLike(rng *rand.Rand, n int) (idx [][]int, val [][]float64) {
	const dim, families = 4096, 24
	trunks := make([][]int, families)
	for f := range trunks {
		trunks[f] = rng.Perm(dim)[:7]
	}
	for len(idx) < n {
		set := map[int]float64{}
		for _, i := range trunks[rng.Intn(families)] {
			set[i] = 1
		}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			set[rng.Intn(dim)] = 1 / float64(1+rng.Intn(2))
		}
		is := make([]int, 0, len(set))
		for i := range set {
			is = append(is, i)
		}
		sort.Ints(is)
		vs := make([]float64, len(is))
		for k, i := range is {
			vs[k] = set[i]
		}
		idx, val = append(idx, is), append(val, vs)
	}
	return idx, val
}

// BenchmarkHNSWVsBruteForce: nearest-centroid lookup through the graph
// against a linear scan with the same sparse similarity, on tag-path-shaped
// vectors at the index size sb-cpu reaches (hnsw.index_size 188). The
// trusted end-to-end comparison is hnsw.vs_bruteforce_ratio in ./benchmark
// (whose linear scan is dense); this is the quick local look.
func BenchmarkHNSWVsBruteForce(b *testing.B) {
	const n = 188
	rng := rand.New(rand.NewSource(1))
	idx, val := tagPathLike(rng, n+1)
	ix := New(DefaultConfig())
	for i := 0; i < n; i++ {
		ix.AddSparse(4096, idx[i], val[i])
	}
	qi, qv := idx[n], val[n]
	b.Run("hnsw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.NearestSparse(qi, qv)
		}
	})
	b.Run("brute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			best, qnorm := -2.0, norm(qv)
			for _, nd := range ix.nodes {
				if s := similarity(qi, qv, qnorm, nd); s > best {
					best = s
				}
			}
			_ = best
		}
	})
}

// denseOf scatters a sparse vector into a fresh dense one.
func denseOf(dim int, idx []int, val []float64) []float64 {
	v := make([]float64, dim)
	for k, i := range idx {
		v[i] = val[k]
	}
	return v
}

// checkNode holds node id to its dense shadow: same bits slot for slot, the
// cached norm equal to the dense norm loop, the support ascending and
// covering every non-zero.
func checkNode(t *testing.T, ix *Index, id int, shadow []float64) {
	t.Helper()
	n := ix.nodes[id]
	vec := ix.Vector(id)
	if len(vec) != len(shadow) {
		t.Fatalf("node %d reads back with dim %d, dense shadow %d", id, len(vec), len(shadow))
	}
	for i, want := range shadow {
		if math.Float64bits(vec[i]) != math.Float64bits(want) {
			t.Fatalf("node %d slot %d = %v, dense shadow %v", id, i, vec[i], want)
		}
	}
	var sq float64
	for _, x := range shadow {
		sq += x * x
	}
	if want := math.Sqrt(sq); math.Float64bits(n.norm) != math.Float64bits(want) {
		t.Fatalf("node %d cached norm %v, dense norm %v", id, n.norm, want)
	}
	in := map[int]bool{}
	for k, i := range n.sup {
		if k > 0 && i <= n.sup[k-1] {
			t.Fatalf("node %d support not strictly ascending: %v", id, n.sup)
		}
		in[i] = true
	}
	for i, x := range shadow {
		if x != 0 && !in[i] {
			t.Fatalf("node %d slot %d = %v is outside the support %v", id, i, x, n.sup)
		}
	}
}

// TestSparseOpsMatchDense drives AddSparse, Merge and the dense Update
// with random sparse vectors and holds every stored vector, cached norm
// and similarity to the dense formulas of the pre-sparse index, bit for bit.
func TestSparseOpsMatchDense(t *testing.T) {
	const dim = 64
	rng := rand.New(rand.NewSource(21))
	randSparse := func() ([]int, []float64) {
		idx := rng.Perm(dim)[:1+rng.Intn(9)]
		sort.Ints(idx)
		val := make([]float64, len(idx))
		for k := range val {
			val[k] = float64(1+rng.Intn(3)) / float64(1+rng.Intn(3))
		}
		return idx, val
	}
	ix := New(Config{M: 4, EfConstruction: 16, EfSearch: 8, Seed: 4})
	var shadows [][]float64
	var counts []int
	for step := 0; step < 600; step++ {
		idx, val := randSparse()
		p := denseOf(dim, idx, val)
		switch {
		case len(shadows) < 8 || step%5 == 0:
			id := ix.AddSparse(dim, idx, val)
			if id != len(shadows) {
				t.Fatalf("AddSparse returned %d, want %d", id, len(shadows))
			}
			shadows, counts = append(shadows, p), append(counts, 1)
			checkNode(t, ix, id, shadows[id])
		case step%5 == 1:
			id := rng.Intn(len(shadows))
			ix.Update(id, p)
			shadows[id], counts[id] = p, 1
			checkNode(t, ix, id, shadows[id])
		default:
			id := rng.Intn(len(shadows))
			ix.Merge(id, idx, val, counts[id])
			c, n := shadows[id], float64(counts[id])
			for i := range c {
				c[i] = c[i] + (p[i]-c[i])/(n+1)
			}
			counts[id]++
			checkNode(t, ix, id, c)
		}
		// The sparse similarity against every node equals the dense cosine
		// loop the index used to run.
		qi, qv := randSparse()
		q := denseOf(dim, qi, qv)
		qnorm := norm(qv)
		for id, c := range shadows {
			var dot, cn float64
			for i := range q {
				dot += q[i] * c[i]
				cn += c[i] * c[i]
			}
			want := dot / (qnorm * math.Sqrt(cn))
			if got := similarity(qi, qv, qnorm, ix.nodes[id]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: similarity to node %d = %v, dense %v", step, id, got, want)
			}
		}
		// Dense and sparse entry points are one implementation.
		dr, dok := ix.Nearest(q)
		sr, sok := ix.NearestSparse(qi, qv)
		if dr != sr || dok != sok {
			t.Fatalf("step %d: Nearest = %+v, NearestSparse = %+v", step, dr, sr)
		}
	}
}

// A dense Update must move the support along with the vector: a later
// Merge walks the support, and a stale one would skip the new non-zeros.
// (Regression test for the adapter benchmark/replay.go still calls.)
func TestUpdateRecomputesSupport(t *testing.T) {
	ix := New(DefaultConfig())
	id := ix.AddSparse(8, []int{1}, []float64{1})
	ix.Update(id, []float64{0, 0, 0, 0, 0, 4, 0, 0})
	checkNode(t, ix, id, []float64{0, 0, 0, 0, 0, 4, 0, 0})
	ix.Merge(id, []int{2}, []float64{2}, 1)
	checkNode(t, ix, id, []float64{0, 0, 1, 0, 0, 2, 0, 0})
	if got, _ := ix.NearestSparse([]int{5}, []float64{1}); got.ID != id || got.Similarity <= 0 {
		t.Errorf("query on the updated slot = %+v, want a hit on node %d", got, id)
	}
}

// TestNearestAllocs: once the index's scratch is warm a lookup allocates
// nothing, through the sparse entry point and through the dense adapter.
func TestNearestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	rng := rand.New(rand.NewSource(5))
	idx, val := tagPathLike(rng, 201)
	ix := New(DefaultConfig())
	for i := 0; i < 200; i++ {
		ix.AddSparse(4096, idx[i], val[i])
	}
	qi, qv := idx[200], val[200]
	q := denseOf(4096, qi, qv)
	ix.NearestSparse(qi, qv) // warm
	ix.Nearest(q)
	if got := testing.AllocsPerRun(100, func() { ix.NearestSparse(qi, qv) }); got != 0 {
		t.Errorf("NearestSparse allocates %v per call after warm-up, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { ix.Nearest(q) }); got != 0 {
		t.Errorf("Nearest (dense adapter) allocates %v per call after warm-up, want 0", got)
	}
}

// TestAddSparseAllocsIndependentOfDim: a node is its non-zeros, so founding
// an action costs the same bytes at D = 4096 as at D = 2^20 (a dense backing
// array was 32 KB and 8 MB).
func TestAddSparseAllocsIndependentOfDim(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	rng := rand.New(rand.NewSource(8))
	idx, val := tagPathLike(rng, 64)
	// The least of three builds: TotalAlloc also counts the odd allocation of
	// another goroutine (the runtime's, the test framework's), which only
	// ever adds bytes.
	addBytes := func(dim int) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			ix := New(DefaultConfig())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range idx {
				ix.AddSparse(dim, idx[i], val[i])
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := addBytes(4096), addBytes(1<<20)
	if small != large {
		t.Errorf("64 AddSparse calls allocate %d bytes at dim 4096, %d at dim 1<<20", small, large)
	}
	if perNode := small / 64; perNode > 2048 {
		t.Errorf("AddSparse allocates %d bytes a node for ~8 non-zeros", perNode)
	}
}

// TestVectorScratchContract: Vector scatters into one scratch and must
// clear what the previous call wrote there — not the node's current
// support, which an Update in between may have shrunk or moved.
func TestVectorScratchContract(t *testing.T) {
	ix := New(DefaultConfig())
	a := ix.AddSparse(8, []int{1, 3, 6}, []float64{1, 2, 3})
	b := ix.AddSparse(8, []int{0, 3}, []float64{4, 5})
	same := func(got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("Vector has dim %d, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("Vector = %v, want %v", got, want)
			}
		}
	}
	same(ix.Vector(a), []float64{0, 1, 0, 2, 0, 0, 3, 0})
	ix.Update(a, []float64{0, 0, 0, 0, 0, 0, 7, 0}) // shrinks a's support under the scratch
	same(ix.Vector(a), []float64{0, 0, 0, 0, 0, 0, 7, 0})
	same(ix.Vector(b), []float64{4, 0, 0, 5, 0, 0, 0, 0})
	ix.Merge(b, []int{2}, []float64{2}, 1) // grows b's support
	same(ix.Vector(a), []float64{0, 0, 0, 0, 0, 0, 7, 0})
	same(ix.Vector(b), []float64{2, 0, 1, 2.5, 0, 0, 0, 0})
}

// drainParked empties the free list, so the next New allocates its
// generator and its nodes.
func drainParked() {
	for len(parkedFree) > 0 {
		<-parkedFree
	}
}

// TestReleasedGeneratorIsFresh: an index built on the generator a used index
// released — seeded differently and part-way through its stream — draws the
// same levels and answers the same NearestSparse queries as one built with
// the free list empty.
func TestReleasedGeneratorIsFresh(t *testing.T) {
	defer drainParked()
	idx, val := tagPathLike(rand.New(rand.NewSource(3)), 150)
	build := func(seed int64, n int) (*Index, []int, []Result) {
		cfg := DefaultConfig()
		cfg.Seed = seed
		ix := New(cfg)
		levels := make([]int, n)
		for i := range n {
			ix.AddSparse(4096, idx[i], val[i])
			levels[i] = ix.nodes[i].level
		}
		var res []Result
		for i := n; i < len(idx); i++ {
			r, _ := ix.NearestSparse(idx[i], val[i])
			res = append(res, r)
		}
		return ix, levels, res
	}
	drainParked()
	_, wantLevels, want := build(9, 120)

	used, _, _ := build(77, 60)
	parked := used.rng
	used.Release()
	if used.rng != nil || len(parkedFree) != 1 {
		t.Fatalf("after Release: generator still held %v, %d parked", used.rng != nil, len(parkedFree))
	}
	reused, levels, got := build(9, 120)
	if reused.rng != parked {
		t.Fatal("New allocated a generator with one parked")
	}
	if !slices.Equal(levels, wantLevels) {
		t.Errorf("levels on a reused generator %v, on a fresh one %v", levels, wantLevels)
	}
	if !slices.Equal(got, want) {
		t.Errorf("NearestSparse on a reused generator %v, on a fresh one %v", got, want)
	}
}

// actionTrace grows ix the way Algorithm 1 does — each vector merged into
// its nearest centroid when that is similar enough (a threshold above
// Algorithm 1's, so that most tag-path-like vectors found a node), founded
// as a new node otherwise — and records every answer, then every node's
// vector and friend lists.
func actionTrace(ix *Index, idx [][]int, val [][]float64) []any {
	var out []any
	counts := map[int]int{}
	for i := range idx {
		near, ok := ix.NearestSparse(idx[i], val[i])
		out = append(out, near, ok)
		if ok && near.Similarity >= 0.9 {
			counts[near.ID]++
			ix.Merge(near.ID, idx[i], val[i], counts[near.ID])
			continue
		}
		id := ix.AddSparse(4096, idx[i], val[i])
		counts[id] = 1
		out = append(out, id)
	}
	for id := range ix.Len() {
		n := ix.nodes[id]
		out = append(out, slices.Clone(n.sup), slices.Clone(n.val), math.Float64bits(n.norm), n.level)
		for _, fr := range n.friends {
			out = append(out, slices.Clone(fr))
		}
	}
	return out
}

// TestParkedSlabIsReset: a released index parks its node slab holding
// nothing of its vectors or graph — every node at level 0 with empty
// support, values and friend lists, their capacity kept — and an index
// built on it, whether it needs fewer nodes than the slab holds or more,
// answers and links exactly like one built with the list empty.
func TestParkedSlabIsReset(t *testing.T) {
	defer drainParked()
	idx, val := tagPathLike(rand.New(rand.NewSource(4)), 300)
	other, otherVal := tagPathLike(rand.New(rand.NewSource(5)), 300)
	build := func(seed int64, idx [][]int, val [][]float64) (*Index, []any) {
		cfg := DefaultConfig()
		cfg.Seed = seed
		ix := New(cfg)
		return ix, actionTrace(ix, idx, val)
	}
	for _, tc := range []struct{ used, reused int }{{300, 120}, {60, 300}} {
		drainParked()
		_, want := build(9, idx[:tc.reused], val[:tc.reused])

		used, _ := build(77, other[:tc.used], otherVal[:tc.used])
		nodes := used.Len()
		used.Release()
		if used.nodes != nil || len(parkedFree) != 1 {
			t.Fatalf("after Release: nodes still held %v, %d slabs parked", used.nodes != nil, len(parkedFree))
		}
		sl := <-parkedFree
		if len(sl.nodes) != 0 || len(sl.visited) != 0 || cap(sl.visited) < nodes {
			t.Fatalf("parked slab: %d nodes, visited len %d cap %d; want 0, 0, ≥ %d", len(sl.nodes), len(sl.visited), cap(sl.visited), nodes)
		}
		for id, n := range sl.nodes[:nodes] {
			if n.level != 0 || n.norm != 0 || len(n.sup) != 0 || len(n.val) != 0 || len(n.friends) != 0 {
				t.Fatalf("parked node %d: level %d norm %v, %d/%d entries, %d layers", id, n.level, n.norm, len(n.sup), len(n.val), len(n.friends))
			}
			if cap(n.sup) == 0 || cap(n.friends) == 0 {
				t.Fatalf("parked node %d dropped its capacity", id)
			}
			for l, fr := range n.friends[:cap(n.friends)] {
				if len(fr) != 0 {
					t.Fatalf("parked node %d keeps %d friends at layer %d", id, len(fr), l)
				}
			}
		}
		parkedFree <- sl

		reused, got := build(9, idx[:tc.reused], val[:tc.reused])
		if len(parkedFree) != 0 || reused.nodes[0] != sl.nodes[:1][0] {
			t.Fatal("New did not take the parked slab")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d vectors on a slab of %d nodes: answers, vectors or links differ from a fresh index", tc.reused, nodes)
		}
	}
}

// TestOutsizedSlabIsNotParked: a slab past any of its bounds — too many
// nodes, a few wide centroids' support, or friend lists — is left to the GC:
// a free list never lets go of what it holds. One within them is parked.
func TestOutsizedSlabIsNotParked(t *testing.T) {
	defer drainParked()
	wide := make([]int, maxParkedSupport/2+1)
	for i := range wide {
		wide[i] = i
	}
	ones := make([]float64, len(wide))
	for i := range ones {
		ones[i] = 1
	}
	for _, tc := range []struct {
		name   string
		fill   func(ix *Index)
		parked bool
	}{
		{"within", func(ix *Index) { ix.AddSparse(4096, []int{1, 2}, []float64{1, 1}) }, true},
		{"nodes", func(ix *Index) { ix.nodes = make([]*node, 0, maxParkedNodes+1) }, false},
		{"support", func(ix *Index) { ix.AddSparse(4096, wide, ones) }, false},
		{"friends", func(ix *Index) {
			ix.AddSparse(4096, []int{1, 2}, []float64{1, 1})
			ix.nodes[0].friends[0] = make([]int, 0, maxParkedFriends+1)
		}, false},
	} {
		drainParked()
		ix := New(DefaultConfig())
		tc.fill(ix)
		ix.Release()
		if parked := (<-parkedFree).nodes != nil; parked != tc.parked {
			t.Errorf("%s: slab parked %v, want %v", tc.name, parked, tc.parked)
		}
	}
}

// TestAddSparseOnParkedSlabAllocs: on a parked slab whose nodes' arrays the
// new vectors and their links fit, an insertion allocates no node, support
// or friend list — less than one allocation a call, the search scratch's
// occasional growth, where a new node costs four.
func TestAddSparseOnParkedSlabAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	defer drainParked()
	drainParked()
	idx, val := tagPathLike(rand.New(rand.NewSource(6)), 64)
	used := New(DefaultConfig())
	for i := range idx {
		used.AddSparse(4096, idx[i], val[i])
	}
	used.Release()
	ix := New(DefaultConfig())
	k := 0
	for ; k < 32; k++ {
		ix.AddSparse(4096, idx[k], val[k])
	}
	if got := testing.AllocsPerRun(20, func() {
		ix.AddSparse(4096, idx[k], val[k])
		k++
	}); got != 0 {
		t.Errorf("AddSparse on a parked node allocates %v per call, want 0", got)
	}
}
