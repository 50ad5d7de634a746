// Package hnsw implements a Hierarchical Navigable Small World index
// (Malkov & Yashunin, ref. [39] of the paper) over float64 vectors with
// cosine similarity, from scratch on the standard library. It supports the
// two operations Algorithm 1 needs: approximate nearest-neighbour search and
// cheap in-place updates of stored vectors (action centroids drift as tag
// paths join their cluster).
//
// # Sparse contract
//
// The vectors the crawler stores are hash-projected tag paths: a handful of
// non-zeros in D = 4096 slots. The index therefore takes a vector as its
// non-zero entries — parallel slices (idx, val) with idx strictly ascending
// (hence unique), each idx[k] in [0, dim) and val[k] finite — and that is
// the only arithmetic in the package: AddSparse, NearestSparse and Merge
// are the implementation; the dense Add, Search, Nearest, Update and Vector
// are adapters that collect the non-zeros of their argument (or scatter a
// node's) and call them. The index never retains idx or val (they may be
// the caller's scratch, e.g. a textvec.TagPathVectorizer's, reused on its
// next call).
//
// A node holds what it was given: its support — the ascending indices that
// may hold a non-zero — and, parallel to it, their values. Nothing in the
// index is D wide, so founding an action costs its handful of entries, not
// D zero-filled floats. query·centroid is a merge-join over the two
// supports, norms are sums over a node's values, and Merge walks the union
// of two supports. Ascending order is what makes this exact rather than
// approximately equal: each loop performs, in the same order, the additions
// the dense loop over all D slots would perform, except for terms in which
// one factor is a slot outside a support — exactly ±0 — and adding ±0 never
// changes a float64 sum (the sums here start at +0 and cannot reach −0).
// Similarities, norms and centroids are therefore bit-identical to the
// dense computation, and so is every graph decision derived from them.
// Zeros of either sign are not stored: they read back from Vector as +0.
//
// The index is deterministic for a given seed and is not safe for concurrent
// use; the crawler drives it from a single goroutine. Searches reuse
// index-owned scratch, so even read-only calls must not overlap.
package hnsw

import (
	"math"
	"math/rand"
	"slices"

	"sbcrawl/internal/freelist"
)

// Config holds HNSW construction parameters.
type Config struct {
	// M is the maximum number of neighbours per node per layer (layer 0
	// allows 2M, as in the reference implementation).
	M int
	// EfConstruction is the beam width during insertion.
	EfConstruction int
	// EfSearch is the beam width during queries.
	EfSearch int
	// Seed makes level draws deterministic.
	Seed int64
}

// DefaultConfig returns parameters suitable for the few-hundred-action
// workloads of the crawler.
func DefaultConfig() Config {
	return Config{M: 12, EfConstruction: 64, EfSearch: 32, Seed: 1}
}

type node struct {
	sup     []int     // ascending indices covering every non-zero of the vector
	val     []float64 // val[k] is the entry at sup[k]; every other entry is zero
	norm    float64   // cached Euclidean norm of the vector
	level   int
	friends [][]int // friends[l] = neighbour IDs at layer l
}

// Index is an HNSW graph. IDs are assigned densely from 0 in insertion
// order and never reused within an index; a released index's nodes are
// reused, emptied, by the next index's insertions.
type Index struct {
	cfg      Config
	ml       float64
	dim      int // the vectors' dimension, as given to AddSparse
	nodes    []*node
	entry    int // entry point node ID, -1 when empty
	maxLevel int
	rng      *rand.Rand

	// Scratch, reused across calls so a search allocates nothing once warm.
	// visited[id] == epoch marks id as seen by the current searchLayer.
	visited []uint64
	epoch   uint64
	cands   []scored // searchLayer's candidate queue
	results []scored // searchLayer's result list, returned to the caller
	ranked  []scored // pruneNeighbors' scored friends
	qidx    []int    // non-zeros of a dense argument (the dense adapters)
	qval    []float64
	dense   []float64 // Vector's one dim-wide scratch
	scatter []int     // the slots of dense the last Vector call wrote
}

// New creates an empty index with the given configuration.
func New(cfg Config) *Index {
	if cfg.M <= 0 {
		cfg.M = 12
	}
	if cfg.EfConstruction < cfg.M {
		cfg.EfConstruction = 4 * cfg.M
	}
	if cfg.EfSearch <= 0 {
		cfg.EfSearch = 2 * cfg.M
	}
	p, ok := parkedFree.Get()
	if ok {
		p.rng.Seed(cfg.Seed)
	} else {
		p.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return &Index{
		cfg:     cfg,
		ml:      1 / math.Log(float64(cfg.M)),
		nodes:   p.nodes,
		entry:   -1,
		rng:     p.rng,
		visited: p.visited,
	}
}

// parked is what a released index leaves the next New: its level generator
// (~4.9 KB), re-seeded by New to a new generator's stream, and its node
// slab — nodes at length 0 with the parked nodes past it, each emptied with
// its arrays' capacity kept, and visited at length 0 — or none when the
// slab was over the maxParked bounds.
type parked struct {
	rng     *rand.Rand
	nodes   []*node
	visited []uint64
}

var parkedFree = freelist.New[parked]()

// The maxParked bounds cap what a parked slab may hold: an index of a short
// crawl has a few dozen nodes of a few hundred entries in all, and one a
// long crawl grew past them — or a few wide centroids did — is left to the
// GC. At the bounds a slab pins ~28 KB of nodes, 64 KB of support and
// 96 KB of friend slots (a layer's slice header counted as one slot).
const (
	maxParkedNodes   = 1 << 8
	maxParkedSupport = 1 << 13 // sup and val entries over all nodes
	maxParkedFriends = 1 << 12 // friend IDs and layers over all nodes
)

// Release parks the index's level generator and, while under the maxParked
// bounds, its node slab for the next New. The index must not be used
// afterwards; one used anyway panics on its next insertion rather than share
// a generator with another index.
func (ix *Index) Release() {
	if ix.rng == nil {
		return
	}
	p := parked{rng: ix.rng}
	ix.rng = nil
	all := ix.nodes[:cap(ix.nodes)]
	support, friends := 0, 0
	for _, n := range all {
		if n == nil {
			continue
		}
		support += cap(n.sup) + cap(n.val)
		friends += cap(n.friends)
		for _, fr := range n.friends[:cap(n.friends)] {
			friends += cap(fr)
		}
	}
	if len(all) <= maxParkedNodes && support <= maxParkedSupport && friends <= maxParkedFriends {
		for _, n := range all {
			if n != nil {
				n.reset()
			}
		}
		p.nodes, p.visited = all[:0], ix.visited[:0]
	}
	parkedFree.Put(p)
	ix.nodes, ix.visited = nil, nil
}

// reset empties a node for its next insertion, keeping the capacity of its
// support, its values, its layer list and every layer's friends.
func (n *node) reset() {
	fr := n.friends[:cap(n.friends)]
	for l := range fr {
		fr[l] = fr[l][:0]
	}
	*n = node{sup: n.sup[:0], val: n.val[:0], friends: fr[:0]}
}

// newNode returns a node at the given level with no vector and no friends:
// the slab's next parked node when there is one, a new one otherwise.
func (ix *Index) newNode(level int) *node {
	var n *node
	if id := len(ix.nodes); id < cap(ix.nodes) {
		n = ix.nodes[:id+1][id] // nil past the parked ones
	}
	if n == nil {
		n = new(node)
	}
	n.level = level
	// Grow keeps the layers up to capacity, which reset emptied.
	n.friends = slices.Grow(n.friends[:0], level+1)[:level+1]
	return n
}

// Len returns the number of stored vectors.
func (ix *Index) Len() int { return len(ix.nodes) }

// Vector returns the stored vector for id, scattered into the index's one
// dim-wide scratch: the slice is read-only and valid until the next Vector
// call (change a stored vector with Merge or Update).
//
// Deprecated: dense adapter, removed at the benchmark re-base.
func (ix *Index) Vector(id int) []float64 {
	if len(ix.dense) != ix.dim {
		ix.dense, ix.scatter = make([]float64, ix.dim), ix.scatter[:0]
	}
	// Zero what the previous call wrote, not this node's support: an Update
	// or Merge in between may have changed it.
	for _, i := range ix.scatter {
		ix.dense[i] = 0
	}
	n := ix.nodes[id]
	for k, i := range n.sup {
		ix.dense[i] = n.val[k]
	}
	ix.scatter = append(ix.scatter[:0], n.sup...)
	return ix.dense
}

// norm returns the Euclidean norm of a vector given by its non-zero values
// in ascending index order.
func norm(val []float64) float64 {
	var n float64
	for _, x := range val {
		n += x * x
	}
	return math.Sqrt(n)
}

// nonZeros collects the non-zero entries of a dense vector into the
// index's scratch; the result is valid until the next dense-adapter call.
func (ix *Index) nonZeros(vec []float64) (idx []int, val []float64) {
	idx, val = ix.qidx[:0], ix.qval[:0]
	for i, x := range vec {
		if x != 0 {
			idx = append(idx, i)
			val = append(val, x)
		}
	}
	ix.qidx, ix.qval = idx, val
	return idx, val
}

// set makes a copy of (idx, val) the vector stored at n.
func (n *node) set(idx []int, val []float64) {
	n.sup = append(n.sup[:0], idx...)
	n.val = append(n.val[:0], val...)
	n.norm = norm(val)
}

// similarity returns the cosine similarity between the sparse query (with
// precomputed norm) and node n: a merge-join over the two ascending
// supports, adding the products of the shared indices in index order.
func similarity(idx []int, val []float64, qnorm float64, n *node) float64 {
	if qnorm == 0 || n.norm == 0 {
		return 0
	}
	sup, nval := n.sup, n.val
	var dot float64
	j := 0
	for k, i := range idx {
		if j = seek(sup, j, i); j == len(sup) {
			break
		}
		if sup[j] == i {
			dot += val[k] * nval[j]
		}
	}
	return dot / (qnorm * n.norm)
}

// seek returns the first position at or after j of the ascending sup whose
// index is at least i (len(sup) when there is none): a step or two on the
// handful of entries a tag path has, a binary search on a centroid whose
// support has grown wide — written out so that it inlines into similarity
// (slices.BinarySearch does not, and cost the wide-support stream 30 %).
func seek(sup []int, j, i int) int {
	if len(sup)-j <= 8 {
		for j < len(sup) && sup[j] < i {
			j++
		}
		return j
	}
	lo, hi := j, len(sup)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); sup[m] < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// randomLevel draws a node level from the standard exponential distribution.
func (ix *Index) randomLevel() int {
	return int(-math.Log(ix.rng.Float64()+1e-12) * ix.ml)
}

// Add inserts the dense vector vec and returns its ID: the adapter over
// AddSparse.
//
// Deprecated: dense adapter, removed at the benchmark re-base.
func (ix *Index) Add(vec []float64) int {
	idx, val := ix.nonZeros(vec)
	return ix.AddSparse(len(vec), idx, val)
}

// AddSparse inserts the dim-dimensional vector whose non-zero entries are
// (idx, val) and returns its ID. Every vector of one index must have the
// same dim. It allocates in proportion to len(idx), whatever dim is, and
// nothing on a parked node whose arrays the vector and its links fit.
func (ix *Index) AddSparse(dim int, idx []int, val []float64) int {
	ix.dim = dim
	n := ix.newNode(ix.randomLevel())
	n.set(idx, val)
	id := len(ix.nodes)
	ix.nodes = append(ix.nodes, n)
	ix.visited = append(ix.visited, 0)

	if ix.entry < 0 {
		ix.entry = id
		ix.maxLevel = n.level
		return id
	}

	qnorm := n.norm
	ep := ix.entry
	// Greedy descent through layers above the new node's level.
	for l := ix.maxLevel; l > n.level; l-- {
		ep = ix.greedyStep(idx, val, qnorm, ep, l)
	}
	// Beam insert on the shared layers.
	for l := min(n.level, ix.maxLevel); l >= 0; l-- {
		cands := ix.searchLayer(idx, val, qnorm, ep, ix.cfg.EfConstruction, l)
		maxConn := ix.cfg.M
		if l == 0 {
			maxConn = 2 * ix.cfg.M
		}
		// Link to the M most similar candidates (simple heuristic).
		for _, c := range cands[:min(len(cands), ix.cfg.M)] {
			n.friends[l] = append(n.friends[l], c.id)
		}
		for _, nb := range n.friends[l] {
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

// Update replaces the vector stored at id with the dense vector vec,
// recomputing the node's support and norm: the adapter for callers that
// build the new vector themselves. Graph links are kept, as in Merge.
//
// Deprecated: dense adapter, removed at the benchmark re-base.
func (ix *Index) Update(id int, vec []float64) {
	idx, val := ix.nonZeros(vec)
	ix.nodes[id].set(idx, val)
}

// Merge folds the sparse vector p = (idx, val) into the centroid c stored
// at id, which so far averages n vectors: c[i] ← c[i] + (p[i] − c[i])/(n+1)
// over the union of the two supports (everywhere else both are zero and the
// update is the identity), in place. Graph links are kept: for the small
// drifts of evolving centroids this preserves recall while costing
// O(support), which is why the paper picks HNSW for "highly efficient
// updates of centroids".
func (ix *Index) Merge(id int, idx []int, val []float64, n int) {
	nd := ix.nodes[id]
	d := float64(n) + 1
	fresh := len(idx) // indices p brings that the centroid does not have yet
	for i, k := 0, 0; k < len(idx); k++ {
		if i = seek(nd.sup, i, idx[k]); i < len(nd.sup) && nd.sup[i] == idx[k] {
			fresh--
		}
	}
	// Grow the node by that many entries and merge from the back, in place:
	// the write position never falls below the centroid's read position.
	i, k := len(nd.sup)-1, len(idx)-1
	nd.sup, nd.val = append(nd.sup, idx[:fresh]...), append(nd.val, val[:fresh]...)
	sup, cv := nd.sup, nd.val
	for w := len(sup) - 1; w >= 0; w-- {
		var at int
		var c, p float64
		switch {
		case k < 0 || (i >= 0 && sup[i] > idx[k]):
			at, c = sup[i], cv[i]
			i--
		case i < 0 || idx[k] > sup[i]:
			at, p = idx[k], val[k]
			k--
		default:
			at, c, p = idx[k], cv[i], val[k]
			i--
			k--
		}
		sup[w], cv[w] = at, c+(p-c)/d
	}
	nd.norm = norm(cv)
}

// Result is one search hit.
type Result struct {
	ID         int
	Similarity float64
}

// Nearest returns the single best match for the dense vector q, or
// ok=false on an empty index.
//
// Deprecated: dense adapter, removed at the benchmark re-base.
func (ix *Index) Nearest(q []float64) (Result, bool) {
	idx, val := ix.nonZeros(q)
	return ix.NearestSparse(idx, val)
}

// NearestSparse returns the single best match for the sparse vector
// (idx, val), or ok=false on an empty index. It allocates nothing once the
// index's scratch is warm.
func (ix *Index) NearestSparse(idx []int, val []float64) (Result, bool) {
	cands := ix.search(idx, val, 1)
	if len(cands) == 0 {
		return Result{}, false
	}
	return Result{ID: cands[0].id, Similarity: cands[0].sim}, true
}

// search returns up to k approximate nearest neighbours, most similar
// first, in scratch valid until the next search or insertion.
func (ix *Index) search(idx []int, val []float64, k int) []scored {
	if ix.entry < 0 || k <= 0 {
		return nil
	}
	qnorm := norm(val)
	ep := ix.entry
	for l := ix.maxLevel; l > 0; l-- {
		ep = ix.greedyStep(idx, val, qnorm, ep, l)
	}
	cands := ix.searchLayer(idx, val, qnorm, ep, max(ix.cfg.EfSearch, k), 0)
	return cands[:min(len(cands), k)]
}

type scored struct {
	id  int
	sim float64
}

// greedyStep walks greedily at layer l from ep to the locally most similar
// node to the query and returns it.
func (ix *Index) greedyStep(idx []int, val []float64, qnorm float64, ep, l int) int {
	cur := ep
	curSim := similarity(idx, val, qnorm, ix.nodes[cur])
	for {
		improved := false
		for _, nb := range ix.friendsAt(cur, l) {
			if s := similarity(idx, val, qnorm, ix.nodes[nb]); s > curSim {
				cur, curSim = nb, s
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

func (ix *Index) friendsAt(id, l int) []int {
	n := ix.nodes[id]
	if l >= len(n.friends) {
		return nil
	}
	return n.friends[l]
}

// pushCandidate inserts s into the candidate queue, whose live part
// cands[head:] is sorted by decreasing similarity; s goes behind its equals.
func pushCandidate(cands []scored, head int, s scored) []scored {
	cands = append(cands, s)
	for i := len(cands) - 1; i > head && cands[i].sim > cands[i-1].sim; i-- {
		cands[i], cands[i-1] = cands[i-1], cands[i]
	}
	return cands
}

// pushResult inserts s into the result list, sorted by increasing
// similarity (worst at index 0) with s behind its equals, and drops the
// worst once the list exceeds ef.
func pushResult(results []scored, s scored, ef int) []scored {
	results = append(results, s)
	for i := len(results) - 1; i > 0 && results[i].sim < results[i-1].sim; i-- {
		results[i], results[i-1] = results[i-1], results[i]
	}
	if len(results) > ef {
		results = results[:copy(results, results[1:])]
	}
	return results
}

// searchLayer performs the beam search of the HNSW paper at one layer from
// entry point ep and returns up to ef results sorted by decreasing
// similarity, in scratch valid until the next searchLayer call.
func (ix *Index) searchLayer(idx []int, val []float64, qnorm float64, ep, ef, l int) []scored {
	ix.epoch++
	visited, epoch := ix.visited, ix.epoch
	// cands[head:]: max-sim first (explored best-first);
	// results: kept sorted ascending by sim, worst at index 0.
	cands, head, results := ix.cands[:0], 0, ix.results[:0]

	visited[ep] = epoch
	s := scored{ep, similarity(idx, val, qnorm, ix.nodes[ep])}
	cands = pushCandidate(cands, head, s)
	results = pushResult(results, s, ef)
	for head < len(cands) {
		c := cands[head]
		head++
		if len(results) >= ef && c.sim < results[0].sim {
			break
		}
		for _, nb := range ix.friendsAt(c.id, l) {
			if visited[nb] == epoch {
				continue
			}
			visited[nb] = epoch
			s := scored{nb, similarity(idx, val, qnorm, ix.nodes[nb])}
			if len(results) < ef || s.sim > results[0].sim {
				cands = pushCandidate(cands, head, s)
				results = pushResult(results, s, ef)
			}
		}
	}
	// Reverse to most-similar-first.
	for i, j := 0, len(results)-1; i < j; i, j = i+1, j-1 {
		results[i], results[j] = results[j], results[i]
	}
	ix.cands, ix.results = cands, results
	return results
}

// pruneNeighbors trims id's neighbour list, in place, to the maxConn most
// similar.
func (ix *Index) pruneNeighbors(id int, friends []int, maxConn int) []int {
	n := ix.nodes[id]
	ranked := ix.ranked[:0]
	for _, f := range friends {
		ranked = append(ranked, scored{f, similarity(n.sup, n.val, n.norm, ix.nodes[f])})
	}
	ix.ranked = ranked
	// Insertion sort by decreasing similarity (lists are tiny).
	for i := 1; i < len(ranked); i++ {
		for j := i; j > 0 && ranked[j].sim > ranked[j-1].sim; j-- {
			ranked[j], ranked[j-1] = ranked[j-1], ranked[j]
		}
	}
	friends = friends[:min(len(friends), maxConn)]
	for i := range friends {
		friends[i] = ranked[i].id
	}
	return friends
}
