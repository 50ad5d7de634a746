package textvec

import "math/bits"

// Sparse is a sparse feature vector, the representation consumed by the
// online learners of internal/learn: Vals[k] is the value of feature IDs[k],
// and IDs is strictly ascending (hence unique). Ascending order is part of
// the contract — see the package comment — so a consumer may sum over the
// entries front to back and rely on the result bit for bit.
type Sparse struct {
	IDs  []int32
	Vals []float64
}

// MakeSparse returns an empty vector with room for n entries.
func MakeSparse(n int) Sparse {
	return Sparse{IDs: make([]int32, 0, n), Vals: make([]float64, 0, n)}
}

// Append adds one entry; id must exceed every ID already in x.
func (x Sparse) Append(id int, v float64) Sparse {
	x.IDs = append(x.IDs, int32(id))
	x.Vals = append(x.Vals, v)
	return x
}

// charClassCount is the size of the "usual ASCII" alphabet of Section 3.3:
// digits, upper and lower case letters, and main special characters, plus a
// catch-all bucket for anything else.
const charClassCount = 96

// charClass maps a byte to its alphabet index. Printable ASCII (0x20–0x7E)
// gets a dense code; everything else shares the final bucket, so non-ASCII
// URLs (multilingual sites) still vectorize.
func charClass(b byte) int {
	if b >= 0x20 && b < 0x7F {
		return int(b - 0x20)
	}
	return charClassCount - 1
}

// CharBigramDim is the dimensionality of the character-bigram feature space.
const CharBigramDim = charClassCount * charClassCount

// bigramWords is the number of 64-bit words in a bitmap over one block.
const bigramWords = CharBigramDim / 64

// charBigram is the in-block ID of the bigram starting at s[i].
func charBigram(s string, i int) uint {
	return uint(charClass(s[i])*charClassCount + charClass(s[i+1]))
}

// AppendCharBigrams appends the character-bigram counts of s, feature IDs
// shifted by offset, and returns the extended vector: a bag of character
// 2-grams over the fixed ASCII-pair vocabulary, the URL feature
// representation of Algorithm 2 (the URL https://www.A.com/... becomes [ht,
// tt, tp, ...]). A string of n bytes has at most n-1 distinct bigrams, so
// MakeSparse(len(s)) holds them without growing. Feature blocks are
// concatenated in ascending offset order (offset must exceed every ID
// already in x, and blocks are CharBigramDim apart), so the result stays
// strictly ascending without a merge.
//
// The block is small and fixed, so there is no sort: one pass marks each
// bigram in a bitmap over the block, a walk of the bitmap emits the distinct
// IDs in ascending order, and a second pass counts each bigram at its rank
// among the set bits. Both tables live on the stack; appending into spare
// capacity allocates nothing.
func (x Sparse) AppendCharBigrams(s string, offset int) Sparse {
	if len(s) < 2 {
		return x
	}
	var seen [bigramWords]uint64
	for i := 0; i+1 < len(s); i++ {
		g := charBigram(s, i)
		seen[g/64] |= 1 << (g % 64)
	}
	// rank[w] is how many distinct bigrams lie below word w.
	var rank [bigramWords]uint16
	start := len(x.IDs)
	for w, word := range &seen {
		rank[w] = uint16(len(x.IDs) - start)
		for ; word != 0; word &= word - 1 {
			x.IDs = append(x.IDs, int32(offset+64*w+bits.TrailingZeros64(word)))
			x.Vals = append(x.Vals, 0)
		}
	}
	vals := x.Vals[start:]
	for i := 0; i+1 < len(s); i++ {
		g := charBigram(s, i)
		vals[int(rank[g/64])+bits.OnesCount64(seen[g/64]&(1<<(g%64)-1))]++
	}
	return x
}
