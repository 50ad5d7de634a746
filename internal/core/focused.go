package core

import (
	"sbcrawl/internal/dom"
	"sbcrawl/internal/frontier"
	"sbcrawl/internal/learn"
	"sbcrawl/internal/textvec"
	"sbcrawl/internal/urlutil"
)

// focused is the FOCUSED baseline of Section 4.3: an early-generation
// focused crawler (Chakrabarti et al. / Diligenti et al. style) that keeps
// the frontier in a priority queue ordered by a logistic-regression estimate
// of the probability that a hyperlink leads to a target. Its features are
// the standard ones the paper lists: approximate source-page depth, a char
// 2-gram BoW of the URL, and a 2-gram BoW of the anchor text. Topic features
// are deliberately absent. It is an ablation of SB-CLASSIFIER: no tag-path
// structure, no reinforcement learning.
type focused struct {
	retrainEvery int
}

// NewFocused returns the FOCUSED baseline; retrainEvery controls how often
// the link scorer is refit and the frontier rescored (no HTTP cost).
func NewFocused(retrainEvery int) Crawler {
	if retrainEvery <= 0 {
		retrainEvery = 50
	}
	return &focused{retrainEvery: retrainEvery}
}

// Name implements Crawler.
func (f *focused) Name() string { return "FOCUSED" }

// depthFeatureID is a reserved feature slot holding the source page depth.
const depthFeatureID = 4 * textvec.CharBigramDim

func focusedFeatures(linkURL, anchor string, sourceDepth int) textvec.Sparse {
	x := textvec.MakeSparse(len(linkURL) + len(anchor) + 1)
	x = x.AppendCharBigrams(linkURL, 0)
	x = x.AppendCharBigrams(anchor, textvec.CharBigramDim)
	return x.Append(depthFeatureID, float64(sourceDepth))
}

// focusedRun is one FOCUSED crawl expressed as a staged policy.
type focusedRun struct {
	f       *focused
	eng     *engine
	model   *learn.LogisticRegression
	pq      frontier.Priority
	queued  map[string]textvec.Sparse // frontier URL → link features
	batch   []learn.Example
	trained bool
	steps   int
	pending textvec.Sparse // features of the URL SelectNext just popped
}

func (r *focusedRun) score(x textvec.Sparse) float64 {
	if !r.trained {
		return 0
	}
	return r.model.Score(x)
}

// SelectNext implements crawlPolicy.
func (r *focusedRun) SelectNext() (string, bool) {
	u, _, ok := r.pq.Pop()
	if !ok {
		return "", false
	}
	r.steps++
	r.pending = r.queued[u] // every pushed URL has an entry
	delete(r.queued, u)
	return u, true
}

// Ingest implements crawlPolicy: label the traversed link by its outcome,
// learn from it, and score the page's new links into the frontier.
func (r *focusedRun) Ingest(_ string, pg page) {
	label := learn.ClassHTML
	if pg.IsTarget {
		label = learn.ClassTarget
	}
	r.batch = append(r.batch, learn.Example{X: r.pending, Y: label})
	if len(r.batch) >= r.f.retrainEvery {
		r.model.PartialFit(r.batch)
		r.batch = r.batch[:0]
		r.trained = true
		r.pq.Rescore(func(url string) float64 { return r.score(r.queued[url]) })
	}
	depth := urlutil.Depth(pg.FinalURL)
	for _, link := range pg.Links {
		lx := focusedFeatures(link.URL, link.AnchorText, depth)
		r.eng.seen[link.URL] = true
		r.queued[link.URL] = lx
		r.pq.Push(link.URL, r.score(lx))
	}
}

// Hints implements crawlPolicy.
func (r *focusedRun) Hints(n int) []string { return r.pq.Peek(n) }

// Run implements Crawler via the staged loop.
func (f *focused) Run(env *Env) (*Result, error) {
	eng, err := newEngine(env)
	if err != nil {
		return nil, err
	}
	eng.fields = dom.AnchorTextField
	r := &focusedRun{
		f:      f,
		eng:    eng,
		model:  learn.NewLogisticRegression(),
		queued: make(map[string]textvec.Sparse),
	}
	eng.seen[env.Root] = true
	r.pq.Push(env.Root, 0)
	r.queued[env.Root] = focusedFeatures(env.Root, "", 0)
	eng.runStaged(r)
	res := eng.result(f.Name(), r.steps)
	learn.Release(r.model)
	return res, nil
}
