package core

// Differential tests: the sparse ActionIndex against the dense Algorithm 1
// of the parent commit (dense_ref_test.go). The claim under test is
// bit-identity, not closeness — every comparison is on math.Float64bits.

import (
	"math"
	"strconv"
	"testing"

	"sbcrawl/internal/dom"
	"sbcrawl/internal/sitegen"
)

// diffPair drives both implementations in lockstep and compares everything
// observable after every call. (The cached per-node norm is private to
// internal/hnsw; it is pinned against the dense norm there — see
// TestSparseOpsMatchDense — and enters every similarity compared here.)
type diffPair struct {
	t      testing.TB
	sparse *ActionIndex
	dense  *denseActionIndex
	calls  int
}

func newDiffPair(t testing.TB, cfg ActionIndexConfig) *diffPair {
	return &diffPair{t: t, sparse: NewActionIndex(cfg), dense: newDenseActionIndex(cfg)}
}

// nearest asks both indexes for the path's nearest centroid (read-only) and
// requires the same hit with the same similarity bits.
func (p *diffPair) nearest(tokens []string) {
	p.t.Helper()
	idx, val := p.sparse.vec.VectorizeSparse(tokens)
	got, gotOK := p.sparse.index.NearestSparse(idx, val)
	want, wantOK := p.dense.index.Nearest(p.dense.vectorize(tokens))
	if gotOK != wantOK || got.ID != want.ID ||
		math.Float64bits(got.Similarity) != math.Float64bits(want.Similarity) {
		p.t.Fatalf("call %d, path %v: nearest = %+v/%v, dense reference %+v/%v",
			p.calls, tokens, got, gotOK, want, wantOK)
	}
}

// sameCentroid requires action a's stored vector to match bit for bit.
func (p *diffPair) sameCentroid(a int, tokens []string) {
	p.t.Helper()
	got, want := p.sparse.index.Vector(a), p.dense.index.Vector(a)
	if len(got) != len(want) {
		p.t.Fatalf("call %d: centroid %d has dim %d, dense reference %d", p.calls, a, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			p.t.Fatalf("call %d, path %v: centroid %d slot %d = %x (%v), dense reference %x (%v)",
				p.calls, tokens, a, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func (p *diffPair) actionFor(tokens []string) int {
	p.t.Helper()
	p.calls++
	p.nearest(tokens)
	got, want := p.sparse.ActionFor(tokens), p.dense.actionFor(tokens)
	if got != want {
		p.t.Fatalf("call %d, path %v: ActionFor = %d, dense reference %d", p.calls, tokens, got, want)
	}
	if p.sparse.NumActions() != p.dense.index.Len() || p.sparse.PathCount(got) != p.dense.paths[want] {
		p.t.Fatalf("call %d: %d actions / %d paths in action %d, dense reference %d / %d", p.calls,
			p.sparse.NumActions(), p.sparse.PathCount(got), got, p.dense.index.Len(), p.dense.paths[want])
	}
	p.sameCentroid(got, tokens)
	return got
}

func (p *diffPair) match(tokens []string) {
	p.t.Helper()
	p.calls++
	p.nearest(tokens)
	got, gotOK := p.sparse.Match(tokens)
	want, wantOK := p.dense.match(tokens)
	if got != want || gotOK != wantOK {
		p.t.Fatalf("call %d, path %v: Match = %d/%v, dense reference %d/%v", p.calls, tokens, got, gotOK, want, wantOK)
	}
	if gotOK {
		p.sameCentroid(got, tokens) // Match must not move it
	}
}

// tagPathStream renders the profile's pages in site order and returns the
// tag path of every hyperlink, repeats included: the stream ActionFor sees,
// without the crawl around it.
func tagPathStream(t testing.TB, code string, scale float64, limit int) []dom.TagPath {
	p, ok := sitegen.ProfileByCode(code)
	if !ok {
		t.Fatalf("unknown profile %q", code)
	}
	site := sitegen.Generate(sitegen.Config{Profile: p, Scale: scale, Seed: 1001})
	var paths []dom.TagPath
	for _, pg := range site.Pages() {
		if pg.Kind != sitegen.KindHTML {
			continue
		}
		for _, l := range dom.ExtractLinksAppend(nil, site.RenderPage(pg)) {
			paths = append(paths, l.TagPath)
			if len(paths) == limit {
				return paths
			}
		}
	}
	return paths
}

// TestActionIndexSparseVsDense replays real tag-path streams — ed (unique
// ids stamped into wrappers: one centroid's support grows with every page),
// il and be — through both implementations: the first part founds and
// merges actions (SB, TP-OFF warm-up), the rest queries the frozen groups
// (TP-OFF's Match phase).
func TestActionIndexSparseVsDense(t *testing.T) {
	limit := 1600
	if raceEnabled || testing.Short() {
		limit = 800 // the dense reference costs ~0.4 ms per path, ~10x that under -race
	}
	for _, site := range []struct {
		code  string
		scale float64
	}{{"ed", 0.012}, {"il", 0.001}, {"be", 0.025}} {
		t.Run(site.code, func(t *testing.T) {
			paths := tagPathStream(t, site.code, site.scale, limit)
			if len(paths) < limit {
				t.Fatalf("stream has %d paths, want %d", len(paths), limit)
			}
			p := newDiffPair(t, ActionIndexConfig{Seed: 3})
			learn := len(paths) * 3 / 4
			widest := 0
			for _, path := range paths[:learn] {
				a := p.actionFor(path)
				support := 0
				for _, x := range p.sparse.index.Vector(a) {
					if x != 0 {
						support++
					}
				}
				widest = max(widest, support)
			}
			for _, path := range paths[learn:] {
				p.match(path)
			}
			t.Logf("%d paths → %d actions, widest centroid support %d", len(paths), p.sparse.NumActions(), widest)
			if site.code == "ed" && widest < 64 {
				t.Errorf("widest centroid support on ed is %d: the stream no longer exercises the wide-support merge", widest)
			}
		})
	}
}

// fuzzTokens is a small alphabet, so random streams revisit grams and
// merge; the last entries are rare enough to keep founding actions.
var fuzzTokens = []string{"html", "body", "div", "div#main", "ul", "ul.datasets", "li", "a", "a.dl", "nav", "span", "table", "tr", "td.x"}

// FuzzActionIndexSparseVsDense: any token stream, any n-gram order and θ,
// at a small projection (D = 64, so buckets collide and values are
// fractions) — same assertions as the replay above. Byte 0 picks n, θ and
// the seed; a byte ≥ 0xF0 ends the current path, its bit 0x08 choosing
// Match over ActionFor; any other byte is a token.
func FuzzActionIndexSparseVsDense(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 7, 0xF0, 0, 1, 3, 7, 0xF0, 0, 1, 2, 7, 0xF0})
	f.Add([]byte{5, 0xF0, 0xF0, 9, 0xF1, 1, 1, 1, 1, 0xF2, 13, 12, 11, 0xF3})
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 0xF8, 0, 1, 2, 3, 4, 5, 6, 8, 0xF0, 0, 1, 9, 5, 6, 7, 0xF9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := ActionIndexConfig{
			N:     1 + int(data[0])%3,
			M:     6,
			W:     9,
			Theta: []float64{0.3, 0.75, 0.95}[int(data[0]/3)%3],
			Seed:  int64(data[0]),
		}
		p := newDiffPair(t, cfg)
		var path []string
		for _, b := range data[1:] {
			if b < 0xF0 {
				path = append(path, fuzzTokens[int(b)%len(fuzzTokens)])
				continue
			}
			if b&0x08 != 0 {
				p.match(path)
			} else {
				p.actionFor(path)
			}
			path = path[:0]
		}
		p.actionFor(path)
	})
}

// TestActionForAllocsSteadyState: a path that joins an existing action
// allocates nothing (sparse query, scratch-owned search, in-place merge);
// founding an action allocates the stored node — backing array, support,
// friend lists, graph back-links, bookkeeping — and no per-call scratch.
func TestActionForAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	ai := NewActionIndex(ActionIndexConfig{Seed: 1})
	paths := tagPathStream(t, "be", 0.025, 400)
	for _, p := range paths {
		ai.ActionFor(p) // warm: vocabulary, centroids and scratch grow here
	}
	before := ai.NumActions()
	i := 0
	if got := testing.AllocsPerRun(len(paths), func() {
		ai.ActionFor(paths[i%len(paths)])
		i++
	}); got != 0 {
		t.Errorf("ActionFor on the merge path allocates %v per call, want 0", got)
	}
	if ai.NumActions() != before {
		t.Fatalf("replaying the warm stream founded %d actions; the merge-path gate needs none", ai.NumActions()-before)
	}
	i = 0
	if got := testing.AllocsPerRun(len(paths), func() {
		ai.Match(paths[i%len(paths)])
		i++
	}); got != 0 {
		t.Errorf("Match allocates %v per call, want 0", got)
	}

	// Founding: every path is new (its own token), so every call adds a node.
	fresh := make([][]string, 64)
	for k := range fresh {
		fresh[k] = []string{"html", "body", "section#s" + strconv.Itoa(k), "p", "a.new" + strconv.Itoa(k)}
	}
	i = 0
	got := testing.AllocsPerRun(len(fresh)-1, func() {
		ai.ActionFor(fresh[i])
		i++
	})
	if ai.NumActions() != before+len(fresh) {
		t.Fatalf("fresh paths founded %d actions, want %d", ai.NumActions()-before, len(fresh))
	}
	// node + backing array + support + friends (outer, one list per level)
	// + the new grams' vocabulary strings + amortized growth of neighbours'
	// lists and of the index's per-action slices.
	if got > 16 {
		t.Errorf("founding an action allocates %v per call, want a handful (the stored node)", got)
	}
}
