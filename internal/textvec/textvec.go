// Package textvec implements the feature-vector machinery of Section 3 of
// the paper: dynamic n-gram vocabularies over tag-path tokens, bag-of-words
// vectors, the fixed-dimension hash projection of Figure 3, and character
// bigram features for URLs (Sec. 3.3, chargram.go).
//
// # Hot-path contract (reusable hasher, byte views, sparse output)
//
// TagPathVectorizer.VectorizeSparse is the per-link hot path. It builds each
// n-gram into an internal reusable byte buffer and resolves it against the
// vocabulary by byte view — a gram string is materialized only the first
// time it is ever seen — and the projection's per-bucket collision counts
// are computed in closed form from the vocabulary's size for the handful of
// buckets a path touches, instead of being recomputed over the whole
// vocabulary per call or kept in a D-wide table.
//
// A tag path touches a handful of the D = 2^m buckets (~8 of 4096 on the
// simulated sites), so the vector leaves the package as its non-zero
// entries only: two parallel slices (idx, val) with idx strictly ascending
// (hence unique) and every val > 0. Both slices are scratch owned by the
// vectorizer — valid until its next VectorizeSparse or Vectorize call, one
// call at a time per vectorizer — and nothing is allocated in steady state.
// Ascending order is part of the contract, not a convenience: a consumer
// that sums over the entries in index order performs exactly the additions
// a dense loop over all D slots performs, minus terms that are exact ±0
// (which leave a float64 sum unchanged), so sparse dot products, norms and
// centroid updates are bit-identical to their dense counterparts.
//
// Vectorize is the dense adapter over the same code: it scatters the sparse
// entries into a freshly allocated D-vector that is safe to retain. Both
// are bit-identical to the compositional NGrams → BoW → Project pipeline,
// which remains available for tests and offline tooling.
//
// # URL features (sorted sparse, caller-owned)
//
// AppendCharBigrams builds the character-bigram vectors of
// Algorithm 2 under the same ordering contract, as a Sparse: parallel IDs
// and Vals with IDs strictly ascending. A block has a fixed 9,216 IDs, so no
// sort is needed: the string's bigrams are marked in a stack bitmap over the
// block, whose walk yields the distinct IDs already in ascending order, and
// counted at their rank in it. Feature blocks (URL, anchor, tag path,
// context, FOCUSED's depth slot) are concatenated in ascending offset order,
// so a multi-block vector is sorted without a merge. Unlike the tag-path
// scratch these slices belong to the caller, who may append into reused
// capacity (the URL classifier featurizes into one scratch per classifier);
// they are the only allocations. The learners of internal/learn sum over the
// entries front to back; ascending IDs are the canonical order that makes
// those sums, and so every score and weight, repeat bit for bit.
package textvec

import (
	"slices"

	"sbcrawl/internal/freelist"
)

// BOS and EOS are the special tokens denoting beginning and end of a tag
// path's token stream (Figure 3).
const (
	BOS = "[BOS]"
	EOS = "[EOS]"
)

// gramSep separates the tokens of one n-gram.
const gramSep = '\x1f'

// NGrams returns the order-preserving n-grams of the token sequence, framed
// by BOS/EOS. For n=1 it returns the tokens themselves (a set-of-tags view);
// for n≥2 each gram is n consecutive tokens joined by '\x1f'.
func NGrams(tokens []string, n int) []string {
	if n <= 1 {
		out := make([]string, len(tokens))
		copy(out, tokens)
		return out
	}
	framed := make([]string, 0, len(tokens)+2)
	framed = append(framed, BOS)
	framed = append(framed, tokens...)
	framed = append(framed, EOS)
	if len(framed) < n {
		return []string{join(framed)}
	}
	out := make([]string, 0, len(framed)-n+1)
	for i := 0; i+n <= len(framed); i++ {
		out = append(out, join(framed[i:i+n]))
	}
	return out
}

func join(parts []string) string {
	size := len(parts) - 1
	for _, p := range parts {
		size += len(p)
	}
	b := make([]byte, 0, size)
	b = append(b, parts[0]...)
	for _, p := range parts[1:] {
		b = append(b, gramSep)
		b = append(b, p...)
	}
	return string(b)
}

// Vocab is a dynamically growing vocabulary assigning stable integer IDs to
// grams in order of first appearance, as the paper's vocabulary is built
// during the crawl.
type Vocab struct {
	ids map[string]int
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab { return &Vocab{ids: make(map[string]int)} }

// Len returns the current vocabulary size d.
func (v *Vocab) Len() int { return len(v.ids) }

// ID returns the gram's ID, assigning a fresh one on first sight.
func (v *Vocab) ID(gram string) int {
	if id, ok := v.ids[gram]; ok {
		return id
	}
	id := len(v.ids)
	v.ids[gram] = id
	return id
}

// BoW computes the bag-of-words count vector of the grams over the (growing)
// vocabulary. The returned slice has length v.Len() after the update.
func (v *Vocab) BoW(grams []string) []float64 {
	for _, g := range grams {
		v.ID(g)
	}
	p := make([]float64, v.Len())
	for _, g := range grams {
		p[v.ids[g]]++
	}
	return p
}

// Projector implements the position-hashing projection of Section 3.2:
// h(x) = ⌊(Π·x mod 2^w) / 2^(w−m)⌋ maps any BoW position to a bucket in
// [0, D) with D = 2^m, and colliding positions are resolved by averaging.
type Projector struct {
	M  uint   // D = 2^M output dimension exponent
	W  uint   // modulus exponent; must satisfy M < W < 64
	Pi uint64 // large prime multiplier Π
}

// DefaultPi is a large prime multiplier for the projection hash; the paper's
// worked example uses 766245317, which we keep as the default so the Figure 3
// walk-through is reproducible bit-for-bit.
const DefaultPi = 766245317

// NewProjector builds a Projector with D = 2^m and modulus 2^w. It panics
// unless m < w < 64: the construction forbids w ≤ m, and w ≥ 64 overflows
// the uint64 modulus 2^w to zero (division-by-zero semantics in Hash).
func NewProjector(m, w uint, pi uint64) *Projector {
	if w <= m {
		panic("textvec: projector requires w > m")
	}
	if w >= 64 {
		panic("textvec: projector requires w < 64 (2^w must fit in uint64)")
	}
	if pi == 0 {
		pi = DefaultPi
	}
	return &Projector{M: m, W: w, Pi: pi}
}

// Dim returns the output dimension D = 2^m.
func (pr *Projector) Dim() int { return 1 << pr.M }

// Hash maps a BoW position to its bucket in [0, D).
func (pr *Projector) Hash(x int) int {
	mod := uint64(1) << pr.W
	shift := pr.W - pr.M
	return int((pr.Pi * uint64(x) % mod) >> shift)
}

// Project maps a d-dimensional BoW vector to the fixed D-dimensional space.
// Buckets hit by several positions receive the mean of the colliding values;
// buckets hit by none are zero (Figure 3).
func (pr *Projector) Project(p []float64) []float64 {
	d := pr.Dim()
	sum := make([]float64, d)
	count := make([]int, d)
	for i, val := range p {
		j := pr.Hash(i)
		sum[j] += val
		count[j]++
	}
	out := make([]float64, d)
	for j := range out {
		if count[j] > 0 {
			out[j] = sum[j] / float64(count[j])
		}
	}
	return out
}

// TagPathVectorizer turns tag paths into fixed-dimension vectors: n-grams
// over a dynamic vocabulary, then hash projection. It is the composition
// used by Algorithm 1 to feed the action index. A vectorizer owns reusable
// scratch state and must not be used from several goroutines at once.
type TagPathVectorizer struct {
	N     int // n-gram order (paper default 2)
	vocab *Vocab
	proj  *Projector

	// piInv is Π⁻¹ mod 2^64, which inverts the projection's multiplication
	// for collisions.
	piInv uint64
	// gram is the reusable n-gram build buffer; buckets the per-call bucket
	// of every gram (sorted, repeats included); idx/val the sparse output.
	gram    []byte
	buckets []int
	idx     []int
	val     []float64
}

// NewTagPathVectorizer builds a vectorizer with the given n-gram order and
// projection parameters (paper defaults: n=2, m=12, w=15). Each vector costs
// 2^(w−m) multiply-and-mask steps per non-zero bucket for its collision
// counts (8 at every in-repo setting, w = m+3), and construction allocates
// nothing D wide.
func NewTagPathVectorizer(n int, m, w uint) *TagPathVectorizer {
	// Newton's iteration for the inverse of the odd Π mod 2^64: Π·Π ≡ 1
	// (mod 8), so Π is its own inverse to 3 bits, and each step doubles the
	// bits that are right.
	inv := uint64(DefaultPi)
	for range 5 {
		inv *= 2 - DefaultPi*inv
	}
	var vocab *Vocab
	if ids, ok := vocabFree.Get(); ok {
		vocab = &Vocab{ids: ids}
	} else {
		vocab = NewVocab()
	}
	return &TagPathVectorizer{
		N:     n,
		vocab: vocab,
		proj:  NewProjector(m, w, DefaultPi),
		piInv: inv,
	}
}

// vocabFree parks released vectorizers' vocabulary maps for
// NewTagPathVectorizer, so a daemon's many short crawls stop regrowing one
// each. A parked map is cleared, and a gram's ID is the vocabulary's size
// when it is first seen, so a reused map numbers every gram as a new one
// would. A vocabulary past maxParkedVocab grams is left to the GC.
var vocabFree = freelist.New[map[string]int]()

// maxParkedVocab bounds the vocabulary Release parks (~0.22 MB of slots).
const maxParkedVocab = 1 << 12

// Release parks the vocabulary map, cleared, for the next
// NewTagPathVectorizer if it is under maxParkedVocab grams. The vectorizer
// must not be used afterwards; one used anyway panics on its next vector
// rather than share a vocabulary with another.
func (tv *TagPathVectorizer) Release() {
	if tv.vocab == nil {
		return
	}
	if ids := tv.vocab.ids; len(ids) <= maxParkedVocab {
		clear(ids)
		vocabFree.Put(ids)
	}
	tv.vocab = nil
}

// Dim returns the fixed output dimension D.
func (tv *TagPathVectorizer) Dim() int { return tv.proj.Dim() }

// gramID resolves the gram (as bytes) to its vocabulary ID, materializing
// the string only on first sight.
func (tv *TagPathVectorizer) gramID(gram []byte) int {
	if id, ok := tv.vocab.ids[string(gram)]; ok {
		return id
	}
	id := len(tv.vocab.ids)
	tv.vocab.ids[string(gram)] = id
	return id
}

// collisions returns how many vocabulary positions 0…V−1 hash to bucket j —
// the count[] column of Project — from V alone. Π is odd, so x ↦ Π·x mod 2^w
// is a bijection, and the positions hashing to j are those congruent mod 2^w
// to one of the 2^(w−m) residues r = Π⁻¹·y mod 2^w with y in
// [j·2^(w−m), (j+1)·2^(w−m)); IDs are dense, so r < V contributes
// ⌊(V−1−r)/2^w⌋ + 1 of them.
func (tv *TagPathVectorizer) collisions(j int) int {
	v := uint64(len(tv.vocab.ids))
	w := tv.proj.W
	mask := uint64(1)<<w - 1
	s := w - tv.proj.M
	n := 0
	for y := uint64(j) << s; y < uint64(j+1)<<s; y++ {
		if r := tv.piInv * y & mask; r < v {
			n += int((v-1-r)>>w) + 1
		}
	}
	return n
}

// appendToken appends one virtual framed token (BOS, tokens..., EOS) to the
// gram buffer.
func appendFramedToken(dst []byte, tokens []string, i int) []byte {
	switch {
	case i == 0:
		return append(dst, BOS...)
	case i == len(tokens)+1:
		return append(dst, EOS...)
	default:
		return append(dst, tokens[i-1]...)
	}
}

// Vectorize maps tag-path tokens to a freshly allocated D-dimensional
// vector, growing the vocabulary as new grams appear: the dense adapter over
// VectorizeSparse, for callers that want a vector to keep. It allocates
// exactly the returned vector.
func (tv *TagPathVectorizer) Vectorize(tokens []string) []float64 {
	idx, val := tv.VectorizeSparse(tokens)
	out := make([]float64, tv.proj.Dim())
	for k, j := range idx {
		out[j] = val[k]
	}
	return out
}

// VectorizeSparse maps tag-path tokens to the non-zero entries of their
// D-dimensional vector, growing the vocabulary as new grams appear: idx
// holds the touched buckets in strictly ascending order, val[k] the value
// of bucket idx[k]. Both slices are the vectorizer's scratch, valid until
// its next call (see the package comment). The entries are bit-identical to
// the non-zeros of proj.Project(vocab.BoW(NGrams(tokens, N))): a bucket's
// sum is the number of grams hashing to it (an integer, exact in float64
// however it is accumulated) and its collision count, computed in closed
// form from the vocabulary's size (collisions), is the integer Project
// counts.
func (tv *TagPathVectorizer) VectorizeSparse(tokens []string) (idx []int, val []float64) {
	tv.buckets = tv.buckets[:0]
	n := tv.N
	if n <= 1 {
		for _, t := range tokens {
			tv.gram = append(tv.gram[:0], t...)
			tv.addGram()
		}
	} else {
		framedLen := len(tokens) + 2
		if framedLen < n {
			// Shorter than one window: a single gram of the whole framed
			// sequence (the NGrams fallback).
			tv.gram = tv.gram[:0]
			for i := 0; i < framedLen; i++ {
				if i > 0 {
					tv.gram = append(tv.gram, gramSep)
				}
				tv.gram = appendFramedToken(tv.gram, tokens, i)
			}
			tv.addGram()
		} else {
			for i := 0; i+n <= framedLen; i++ {
				tv.gram = tv.gram[:0]
				for j := i; j < i+n; j++ {
					if j > i {
						tv.gram = append(tv.gram, gramSep)
					}
					tv.gram = appendFramedToken(tv.gram, tokens, j)
				}
				tv.addGram()
			}
		}
	}

	// One entry per run of equal buckets: run length / collision count.
	slices.Sort(tv.buckets)
	tv.idx, tv.val = tv.idx[:0], tv.val[:0]
	for i := 0; i < len(tv.buckets); {
		j := tv.buckets[i]
		run := i + 1
		for run < len(tv.buckets) && tv.buckets[run] == j {
			run++
		}
		tv.idx = append(tv.idx, j)
		tv.val = append(tv.val, float64(run-i)/float64(tv.collisions(j)))
		i = run
	}
	return tv.idx, tv.val
}

// addGram resolves the gram in the build buffer and records its bucket.
func (tv *TagPathVectorizer) addGram() {
	tv.buckets = append(tv.buckets, tv.proj.Hash(tv.gramID(tv.gram)))
}
