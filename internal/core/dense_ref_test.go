package core

// The dense Algorithm 1 the sparse action index replaced, kept verbatim as a
// test-only reference: denseIndex is internal/hnsw as of commit 40af39a
// (dense vectors, a D-slot dot product per visited node, map-based visited
// set, fresh slices per search, Update copying a caller-built centroid) and
// denseActionIndex is core.ActionIndex of the same commit on top of it, fed
// by the compositional NGrams → BoW → Project pipeline. The differential
// tests in actions_diff_test.go hold the production index to it bit for
// bit. Do not "clean up" this file: its value is that it did not change.

import (
	"math"
	"math/rand"

	"sbcrawl/internal/hnsw"
	"sbcrawl/internal/textvec"
)

// denseActionIndex is the parent commit's ActionIndex.
type denseActionIndex struct {
	n     int
	vocab *textvec.Vocab
	proj  *textvec.Projector
	index *denseIndex
	theta float64
	paths []int
}

func newDenseActionIndex(cfg ActionIndexConfig) *denseActionIndex {
	cfg = cfg.withDefaults()
	hcfg := hnsw.DefaultConfig()
	hcfg.Seed = cfg.Seed + 1
	return &denseActionIndex{
		n:     cfg.N,
		vocab: textvec.NewVocab(),
		proj:  textvec.NewProjector(cfg.M, cfg.W, textvec.DefaultPi),
		index: newDenseIndex(hcfg),
		theta: cfg.Theta,
	}
}

func (ai *denseActionIndex) vectorize(tokens []string) []float64 {
	return ai.proj.Project(ai.vocab.BoW(textvec.NGrams(tokens, ai.n)))
}

func (ai *denseActionIndex) actionFor(tokens []string) int {
	pD := ai.vectorize(tokens)
	if nearest, ok := ai.index.Nearest(pD); ok && nearest.Similarity >= ai.theta {
		a := nearest.ID
		// Incremental centroid update: c ← c + (p − c)/(n+1).
		c := ai.index.Vector(a)
		n := float64(ai.paths[a])
		updated := make([]float64, len(c))
		for i := range c {
			updated[i] = c[i] + (pD[i]-c[i])/(n+1)
		}
		ai.index.Update(a, updated)
		ai.paths[a]++
		return a
	}
	id := ai.index.Add(pD)
	ai.paths = append(ai.paths, 1)
	return id
}

func (ai *denseActionIndex) match(tokens []string) (int, bool) {
	pD := ai.vectorize(tokens)
	if nearest, ok := ai.index.Nearest(pD); ok && nearest.Similarity >= ai.theta {
		return nearest.ID, true
	}
	return 0, false
}

type denseNode struct {
	vec     []float64
	norm    float64 // cached Euclidean norm of vec
	level   int
	friends [][]int // friends[l] = neighbour IDs at layer l
}

// Index is an HNSW graph. IDs are assigned densely from 0 in insertion
// order and never reused.
type denseIndex struct {
	cfg      hnsw.Config
	ml       float64
	nodes    []*denseNode
	entry    int // entry point node ID, -1 when empty
	maxLevel int
	rng      *rand.Rand
}

// newDenseIndex creates an empty index with the given configuration.
func newDenseIndex(cfg hnsw.Config) *denseIndex {
	if cfg.M <= 0 {
		cfg.M = 12
	}
	if cfg.EfConstruction < cfg.M {
		cfg.EfConstruction = 4 * cfg.M
	}
	if cfg.EfSearch <= 0 {
		cfg.EfSearch = 2 * cfg.M
	}
	return &denseIndex{
		cfg:   cfg,
		ml:    1 / math.Log(float64(cfg.M)),
		entry: -1,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Len returns the number of stored vectors.
func (ix *denseIndex) Len() int { return len(ix.nodes) }

// Vector returns (a reference to) the stored vector for id.
func (ix *denseIndex) Vector(id int) []float64 { return ix.nodes[id].vec }

func denseVectorNorm(v []float64) float64 {
	var n float64
	for _, x := range v {
		n += x * x
	}
	return math.Sqrt(n)
}

// similarity returns the cosine similarity between the query (with
// precomputed norm) and node n.
func (ix *denseIndex) similarity(q []float64, qnorm float64, n *denseNode) float64 {
	if qnorm == 0 || n.norm == 0 {
		return 0
	}
	var dot float64
	for i := range q {
		dot += q[i] * n.vec[i]
	}
	return dot / (qnorm * n.norm)
}

// randomLevel draws a node level from the standard exponential distribution.
func (ix *denseIndex) randomLevel() int {
	return int(-math.Log(ix.rng.Float64()+1e-12) * ix.ml)
}

// Add inserts vec and returns its ID.
func (ix *denseIndex) Add(vec []float64) int {
	cp := make([]float64, len(vec))
	copy(cp, vec)
	n := &denseNode{vec: cp, norm: denseVectorNorm(cp), level: ix.randomLevel()}
	n.friends = make([][]int, n.level+1)
	id := len(ix.nodes)
	ix.nodes = append(ix.nodes, n)

	if ix.entry < 0 {
		ix.entry = id
		ix.maxLevel = n.level
		return id
	}

	qnorm := n.norm
	ep := ix.entry
	// Greedy descent through layers above the new node's level.
	for l := ix.maxLevel; l > n.level; l-- {
		ep = ix.greedyStep(cp, qnorm, ep, l)
	}
	// Beam insert on the shared layers.
	for l := min(n.level, ix.maxLevel); l >= 0; l-- {
		cands := ix.searchLayer(cp, qnorm, []int{ep}, ix.cfg.EfConstruction, l)
		maxConn := ix.cfg.M
		if l == 0 {
			maxConn = 2 * ix.cfg.M
		}
		selected := ix.selectNeighbors(cands, ix.cfg.M)
		n.friends[l] = append(n.friends[l], selected...)
		for _, nb := range selected {
			fr := &ix.nodes[nb].friends[l]
			*fr = append(*fr, id)
			if len(*fr) > maxConn {
				*fr = ix.pruneNeighbors(nb, *fr, maxConn)
			}
		}
		if len(cands) > 0 {
			ep = cands[0].id
		}
	}
	if n.level > ix.maxLevel {
		ix.maxLevel = n.level
		ix.entry = id
	}
	return id
}

// Update replaces the vector stored at id in place. Graph links are kept:
// for the small drifts of evolving centroids this preserves recall while
// costing O(1), which is why the paper picks HNSW for "highly efficient
// updates of centroids".
func (ix *denseIndex) Update(id int, vec []float64) {
	n := ix.nodes[id]
	copy(n.vec, vec)
	n.norm = denseVectorNorm(n.vec)
}

// Search returns up to k approximate nearest neighbours of q by cosine
// similarity, most similar first.
func (ix *denseIndex) Search(q []float64, k int) []hnsw.Result {
	if ix.entry < 0 || k <= 0 {
		return nil
	}
	qnorm := denseVectorNorm(q)
	ep := ix.entry
	for l := ix.maxLevel; l > 0; l-- {
		ep = ix.greedyStep(q, qnorm, ep, l)
	}
	ef := ix.cfg.EfSearch
	if ef < k {
		ef = k
	}
	cands := ix.searchLayer(q, qnorm, []int{ep}, ef, 0)
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]hnsw.Result, len(cands))
	for i, c := range cands {
		out[i] = hnsw.Result{ID: c.id, Similarity: c.sim}
	}
	return out
}

// Nearest returns the single best match, or ok=false on an empty index.
func (ix *denseIndex) Nearest(q []float64) (hnsw.Result, bool) {
	res := ix.Search(q, 1)
	if len(res) == 0 {
		return hnsw.Result{}, false
	}
	return res[0], true
}

type denseScored struct {
	id  int
	sim float64
}

// greedyStep walks greedily at layer l from ep to the locally most similar
// node to q and returns it.
func (ix *denseIndex) greedyStep(q []float64, qnorm float64, ep, l int) int {
	cur := ep
	curSim := ix.similarity(q, qnorm, ix.nodes[cur])
	for {
		improved := false
		for _, nb := range ix.friendsAt(cur, l) {
			if s := ix.similarity(q, qnorm, ix.nodes[nb]); s > curSim {
				cur, curSim = nb, s
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

func (ix *denseIndex) friendsAt(id, l int) []int {
	n := ix.nodes[id]
	if l >= len(n.friends) {
		return nil
	}
	return n.friends[l]
}

// searchLayer performs the beam search of the HNSW paper at one layer and
// returns up to ef results sorted by decreasing similarity.
func (ix *denseIndex) searchLayer(q []float64, qnorm float64, eps []int, ef, l int) []denseScored {
	visited := map[int]bool{}
	// candidates: max-sim first (explored best-first);
	// results: kept sorted ascending by sim, worst at index 0.
	var candidates, results []denseScored
	push := func(s denseScored) {
		candidates = append(candidates, s)
		for i := len(candidates) - 1; i > 0 && candidates[i].sim > candidates[i-1].sim; i-- {
			candidates[i], candidates[i-1] = candidates[i-1], candidates[i]
		}
	}
	addResult := func(s denseScored) {
		results = append(results, s)
		for i := len(results) - 1; i > 0 && results[i].sim < results[i-1].sim; i-- {
			results[i], results[i-1] = results[i-1], results[i]
		}
		if len(results) > ef {
			results = results[1:]
		}
	}
	for _, ep := range eps {
		if visited[ep] {
			continue
		}
		visited[ep] = true
		s := denseScored{ep, ix.similarity(q, qnorm, ix.nodes[ep])}
		push(s)
		addResult(s)
	}
	for len(candidates) > 0 {
		c := candidates[0]
		candidates = candidates[1:]
		if len(results) >= ef && c.sim < results[0].sim {
			break
		}
		for _, nb := range ix.friendsAt(c.id, l) {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			s := denseScored{nb, ix.similarity(q, qnorm, ix.nodes[nb])}
			if len(results) < ef || s.sim > results[0].sim {
				push(s)
				addResult(s)
			}
		}
	}
	// Reverse to most-similar-first.
	out := make([]denseScored, len(results))
	for i := range results {
		out[i] = results[len(results)-1-i]
	}
	return out
}

// selectNeighbors keeps the m most similar candidates (simple heuristic).
func (ix *denseIndex) selectNeighbors(cands []denseScored, m int) []int {
	if len(cands) > m {
		cands = cands[:m]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// pruneNeighbors trims id's neighbour list to the maxConn most similar.
func (ix *denseIndex) pruneNeighbors(id int, friends []int, maxConn int) []int {
	n := ix.nodes[id]
	scoredFriends := make([]denseScored, len(friends))
	for i, f := range friends {
		scoredFriends[i] = denseScored{f, ix.similarity(n.vec, n.norm, ix.nodes[f])}
	}
	// Insertion sort by decreasing similarity (lists are tiny).
	for i := 1; i < len(scoredFriends); i++ {
		for j := i; j > 0 && scoredFriends[j].sim > scoredFriends[j-1].sim; j-- {
			scoredFriends[j], scoredFriends[j-1] = scoredFriends[j-1], scoredFriends[j]
		}
	}
	if len(scoredFriends) > maxConn {
		scoredFriends = scoredFriends[:maxConn]
	}
	out := make([]int, len(scoredFriends))
	for i, s := range scoredFriends {
		out[i] = s.id
	}
	return out
}
