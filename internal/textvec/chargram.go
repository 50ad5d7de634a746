package textvec

import "slices"

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

// CharBigrams encodes a string as a bag of character 2-grams over the fixed
// ASCII-pair vocabulary, the URL feature representation of Algorithm 2 (the
// URL https://www.A.com/... becomes [ht, tt, tp, ...]). It allocates only the
// two slices it returns.
func CharBigrams(s string) Sparse {
	return MakeSparse(len(s)).AppendCharBigrams(s, 0)
}

// AppendCharBigrams appends the character-bigram counts of s, feature IDs
// shifted by offset, and returns the extended vector. Feature blocks are
// concatenated in ascending offset order (offset must exceed every ID
// already in x, and blocks are CharBigramDim apart), so the result stays
// strictly ascending without a merge.
func (x Sparse) AppendCharBigrams(s string, offset int) Sparse {
	start := len(x.IDs)
	for i := 0; i+1 < len(s); i++ {
		x.IDs = append(x.IDs, int32(offset+charClass(s[i])*charClassCount+charClass(s[i+1])))
	}
	// One entry per run of equal IDs, compacted in place: the write index
	// never passes the read index.
	grams := x.IDs[start:]
	slices.Sort(grams)
	x.IDs = x.IDs[:start]
	for i := 0; i < len(grams); {
		run := i + 1
		for run < len(grams) && grams[run] == grams[i] {
			run++
		}
		x = x.Append(int(grams[i]), float64(run-i))
		i = run
	}
	return x
}
