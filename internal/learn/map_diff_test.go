package learn_test

// Differential tests: the sorted-slice features and flat-vector models
// against the map-keyed Algorithm 2 of the parent commit (map_ref_test.go).
// The claim under test is bit-identity, not closeness — every comparison is
// on math.Float64bits.

import (
	"math"
	"net/url"
	"strings"
	"testing"

	"sbcrawl/internal/classify"
	"sbcrawl/internal/dom"
	"sbcrawl/internal/learn"
	"sbcrawl/internal/sitegen"
	"sbcrawl/internal/textvec"
	"sbcrawl/internal/urlutil"
)

// sample is one hyperlink as Algorithm 2 and FOCUSED see it.
type sample struct {
	link  classify.LinkContext
	depth int // of the source page
	label int
}

// linkStream renders the profile's pages in site order and returns every
// hyperlink with its context and true class, repeats included.
func linkStream(t testing.TB, code string, scale float64, limit int) []sample {
	p, ok := sitegen.ProfileByCode(code)
	if !ok {
		t.Fatalf("unknown profile %q", code)
	}
	site := sitegen.Generate(sitegen.Config{Profile: p, Scale: scale, Seed: 1001})
	var out []sample
	for _, pg := range site.Pages() {
		if pg.Kind != sitegen.KindHTML {
			continue
		}
		base, err := url.Parse(pg.URL)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range dom.ExtractLinksAppend(nil, site.RenderPage(pg)) {
			abs := urlutil.Normalize(base, l.URL)
			label := learn.ClassHTML
			if pg, ok := site.Lookup(abs); ok && pg.Kind == sitegen.KindTarget {
				label = learn.ClassTarget
			}
			out = append(out, sample{
				link:  classify.LinkContext{URL: abs, AnchorText: l.AnchorText, TagPath: l.TagPath.String(), SurroundingText: l.SurroundingText},
				depth: urlutil.Depth(pg.URL),
				label: label,
			})
			if len(out) == limit {
				return out
			}
		}
	}
	return out
}

// edgeSamples puts the strings a site never produces through every feature
// block: empty, one byte (no bigram), non-ASCII (the catch-all class) and
// longer than any URL.
func edgeSamples() []sample {
	long := strings.Repeat("/päth-0123456789", 40) // 680 bytes
	edges := []string{"", "a", "ab", "https://例え.jp/データ", "\x00\x7f\xff ~", long}
	var out []sample
	for i, u := range edges {
		for j, ctx := range edges {
			out = append(out, sample{
				link:  classify.LinkContext{URL: u, AnchorText: ctx, TagPath: edges[(i+j)%len(edges)], SurroundingText: ctx},
				depth: i,
				label: (i + j) % 2,
			})
		}
	}
	return out
}

// layouts are the three feature layouts in the tree, each built the new way
// and the parent's way (offset Adds into one map).
var layouts = []struct {
	name string
	fast func(s sample) textvec.Sparse
	ref  func(s sample) refSparse
}{
	{
		name: "URL_ONLY",
		fast: func(s sample) textvec.Sparse { return classify.Features(classify.URLOnly, s.link) },
		ref:  func(s sample) refSparse { return refCharBigrams(s.link.URL) },
	},
	{
		name: "URL_CONT",
		fast: func(s sample) textvec.Sparse { return classify.Features(classify.URLContent, s.link) },
		ref: func(s sample) refSparse {
			x := refCharBigrams(s.link.URL)
			x.Add(refCharBigrams(s.link.AnchorText), 1*refCharBigramDim)
			x.Add(refCharBigrams(s.link.TagPath), 2*refCharBigramDim)
			x.Add(refCharBigrams(s.link.SurroundingText), 3*refCharBigramDim)
			return x
		},
	},
	{
		// core.focusedFeatures is unexported; this is its layout.
		name: "FOCUSED",
		fast: func(s sample) textvec.Sparse {
			x := textvec.MakeSparse(len(s.link.URL)+len(s.link.AnchorText)).AppendCharBigrams(s.link.URL, 0)
			x = x.AppendCharBigrams(s.link.AnchorText, textvec.CharBigramDim)
			return x.Append(4*textvec.CharBigramDim, float64(s.depth))
		},
		ref: func(s sample) refSparse {
			x := refCharBigrams(s.link.URL)
			x.Add(refCharBigrams(s.link.AnchorText), refCharBigramDim)
			x[4*refCharBigramDim] = float64(s.depth)
			return x
		},
	},
}

// sameVector requires the slices to be the sorted map: strictly ascending
// IDs, one entry per key, equal values.
func sameVector(t testing.TB, got textvec.Sparse, want refSparse) {
	t.Helper()
	ids := refSortedIDs(want)
	if len(got.IDs) != len(ids) || len(got.Vals) != len(ids) {
		t.Fatalf("%d IDs / %d values, map reference has %d entries", len(got.IDs), len(got.Vals), len(ids))
	}
	for k, id := range ids {
		if int(got.IDs[k]) != id || math.Float64bits(got.Vals[k]) != math.Float64bits(want[id]) {
			t.Fatalf("entry %d = (%d, %v), map reference (%d, %v)", k, got.IDs[k], got.Vals[k], id, want[id])
		}
	}
}

// scoredModel is a model with the real-valued confidence Predict
// thresholds, which every family computes.
type scoredModel interface {
	learn.Model
	Score(x textvec.Sparse) float64
}

func TestModelsMatchMapReference(t *testing.T) {
	var stream []sample
	for _, sp := range []struct {
		code  string
		scale float64
	}{{"ed", 0.012}, {"il", 0.001}, {"be", 0.025}} {
		stream = append(stream, linkStream(t, sp.code, sp.scale, 1200)...)
	}
	stream = append(stream, edgeSamples()...)

	const batchSize = 10 // Algorithm 2's b
	for _, lay := range layouts {
		for _, name := range learn.ModelNames {
			t.Run(lay.name+"/"+name, func(t *testing.T) {
				fast, ref := learn.NewModel(name).(scoredModel), newRefModel(name)
				var (
					batch    []learn.Example
					refBatch []refExample
				)
				sameScores := func(when string, at int) {
					t.Helper()
					for k := range batch {
						got, want := fast.Score(batch[k].X), ref.Score(refBatch[k].X)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("sample %d, %s PartialFit: Score = %x (%v), map reference %x (%v)",
								at-len(batch)+1+k, when, math.Float64bits(got), got, math.Float64bits(want), want)
						}
					}
				}
				for i, s := range stream {
					x, rx := lay.fast(s), lay.ref(s)
					sameVector(t, x, rx)
					batch = append(batch, learn.Example{X: x, Y: s.label})
					refBatch = append(refBatch, refExample{X: rx, Y: s.label})
					if len(batch) < batchSize {
						continue
					}
					sameScores("before", i)
					fast.PartialFit(batch)
					ref.PartialFit(refBatch)
					sameScores("after", i)
					batch, refBatch = batch[:0], refBatch[:0]
				}
			})
		}
	}
}

// FuzzCharBigramsSortedVsMap: for arbitrary bytes and block offsets the
// slices are exactly the parent's map in ascending key order, and appending
// a second block leaves the first untouched.
func FuzzCharBigramsSortedVsMap(f *testing.F) {
	f.Add([]byte("https://www.A.com/data/file.csv"), []byte("download"), uint16(1))
	f.Add([]byte(""), []byte("a"), uint16(0))
	f.Add([]byte("\xff\xfe\x00"), []byte("wwwwww"), uint16(3))
	f.Fuzz(func(t *testing.T, first, second []byte, block uint16) {
		// Blocks are CharBigramDim apart; the second goes strictly above
		// the first, as every caller lays them out.
		offset := (1 + int(block%8)) * textvec.CharBigramDim
		want := refCharBigrams(string(first))
		got := textvec.MakeSparse(len(first)).AppendCharBigrams(string(first), 0)
		sameVector(t, got, want)

		want.Add(refCharBigrams(string(second)), offset)
		sameVector(t, got.AppendCharBigrams(string(second), offset), want)
	})
}
