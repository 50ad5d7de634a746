package core

import (
	"sbcrawl/internal/hnsw"
	"sbcrawl/internal/textvec"
)

// ActionIndex realizes Algorithm 1: it maps each hyperlink's tag path to an
// action — an evolving cluster of similar tag paths represented only by its
// centroid, stored in an HNSW index. A path joins its nearest action when
// the cosine similarity clears θ; otherwise it founds a new action.
type ActionIndex struct {
	vec   *textvec.TagPathVectorizer
	index *hnsw.Index
	theta float64
	// paths[a] counts the tag paths merged into action a (the centroid's
	// denominator).
	paths []int
}

// ActionIndexConfig carries the hyper-parameters of Sections 3.1–3.2.
type ActionIndexConfig struct {
	// N is the n-gram order over tag-path tokens (paper default 2).
	N int
	// M is the projection dimension exponent, D = 2^M (default 12).
	M uint
	// W is the hash modulus exponent, w > m (default 15).
	W uint
	// Theta is the similarity threshold θ (default 0.75).
	Theta float64
	// Seed drives the HNSW level draws.
	Seed int64
}

func (c ActionIndexConfig) withDefaults() ActionIndexConfig {
	if c.N <= 0 {
		c.N = 2
	}
	if c.M == 0 {
		c.M = 12
	}
	if c.W <= c.M {
		c.W = c.M + 3
	}
	if c.Theta == 0 {
		c.Theta = 0.75
	}
	return c
}

// NewActionIndex builds an empty index.
func NewActionIndex(cfg ActionIndexConfig) *ActionIndex {
	cfg = cfg.withDefaults()
	hcfg := hnsw.DefaultConfig()
	hcfg.Seed = cfg.Seed + 1
	return &ActionIndex{
		vec:   textvec.NewTagPathVectorizer(cfg.N, cfg.M, cfg.W),
		index: hnsw.New(hcfg),
		theta: cfg.Theta,
	}
}

// ActionFor assigns the tag path to an action (Algorithm 1), creating a new
// one when no centroid is similar enough, and returns the action ID. The
// path travels as its sparse vector — the vectorizer's scratch, consumed
// before the next call — so joining an action allocates nothing.
func (ai *ActionIndex) ActionFor(tokens []string) int {
	idx, val := ai.vec.VectorizeSparse(tokens)
	if nearest, ok := ai.index.NearestSparse(idx, val); ok && nearest.Similarity >= ai.theta {
		a := nearest.ID
		// Incremental centroid update: c ← c + (p − c)/(n+1).
		ai.index.Merge(a, idx, val, ai.paths[a])
		ai.paths[a]++
		return a
	}
	id := ai.index.AddSparse(ai.vec.Dim(), idx, val)
	ai.paths = append(ai.paths, 1)
	return id
}

// Match finds the action whose centroid clears θ for the tag path, without
// creating actions or moving centroids — the frozen-group query of the
// TP-OFF baseline's second phase.
func (ai *ActionIndex) Match(tokens []string) (int, bool) {
	idx, val := ai.vec.VectorizeSparse(tokens)
	if nearest, ok := ai.index.NearestSparse(idx, val); ok && nearest.Similarity >= ai.theta {
		return nearest.ID, true
	}
	return 0, false
}

// Release parks the HNSW index's level generator and node slab, emptied and
// only under its bounds (hnsw.Index.Release), and the tag-path vocabulary,
// cleared and only under its bound (textvec.TagPathVectorizer.Release), for
// the next action index. PathCount still answers; the index must not map
// paths afterwards, and NumActions, its node count, reads 0.
func (ai *ActionIndex) Release() {
	ai.index.Release()
	ai.vec.Release()
}

// NumActions returns |A|.
func (ai *ActionIndex) NumActions() int { return ai.index.Len() }

// PathCount returns how many tag paths have merged into the action.
func (ai *ActionIndex) PathCount(a int) int { return ai.paths[a] }
