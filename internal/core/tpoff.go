package core

import (
	"sbcrawl/internal/dom"
	"sbcrawl/internal/frontier"
)

// tpoff is the TP-OFF baseline of Section 4.3: the offline-trained,
// tag-path-based crawler adapted from ACEBot (ref. [20]). It crawls a
// warm-up prefix breadth-first while grouping the tag paths of followed
// links and crediting each group with the true benefit of the pages it led
// to (an oracle advantage the paper explicitly grants). After the warm-up,
// groups are frozen: links matching an existing group enter its queue,
// groups are served best-average-benefit first, and links forming new
// groups receive a fixed benefit of 0.
type tpoff struct {
	warmup int
	theta  float64
	seed   int64
}

// NewTPOff builds the baseline. warmup is the number of BFS pages of the
// offline phase (the paper uses 3 000 on full-size sites; scale it with the
// site).
func NewTPOff(warmup int, seed int64) Crawler {
	if warmup <= 0 {
		warmup = 3000
	}
	return &tpoff{warmup: warmup, theta: 0.75, seed: seed}
}

// Name implements Crawler.
func (t *tpoff) Name() string { return "TP-OFF" }

// tpoffRun is one TP-OFF crawl: shared state for the two staged phases.
type tpoffRun struct {
	t          *tpoff
	eng        *engine
	env        *Env
	actions    *ActionIndex
	benefitSum map[int]float64
	benefitCnt map[int]int
	bfs        frontier.Queue
	groupOf    map[string]int // pending URL → group of the link that found it
	grouped    *frontier.Grouped
	steps      int
}

// avg is a group's frozen average benefit.
func (r *tpoffRun) avg(g int) float64 {
	if r.benefitCnt[g] == 0 {
		return 0
	}
	return r.benefitSum[g] / float64(r.benefitCnt[g])
}

// tpoffWarmup is phase 1: BFS warm-up with oracle benefits.
type tpoffWarmup struct{ r *tpoffRun }

// SelectNext implements crawlPolicy.
func (p tpoffWarmup) SelectNext() (string, bool) {
	r := p.r
	if r.steps >= r.t.warmup {
		return "", false
	}
	u, ok := r.bfs.Pop()
	if !ok {
		return "", false
	}
	r.steps++
	return u, true
}

// Ingest implements crawlPolicy.
func (p tpoffWarmup) Ingest(u string, pg page) {
	r := p.r
	if g, ok := r.groupOf[u]; ok && pg.IsHTML && r.env.OracleBenefit != nil {
		r.benefitSum[g] += float64(r.env.OracleBenefit(pg.FinalURL))
		r.benefitCnt[g]++
	}
	delete(r.groupOf, u)
	for _, link := range pg.Links {
		g := r.actions.ActionFor(link.TagPath)
		r.groupOf[link.URL] = g
		r.eng.seen[link.URL] = true
		r.bfs.Push(link.URL)
	}
}

// Hints implements crawlPolicy.
func (p tpoffWarmup) Hints(n int) []string { return p.r.bfs.Peek(n) }

// fifoHints implements fifoHinter: the warm-up pops a FIFO queue.
func (tpoffWarmup) fifoHints() bool { return true }

// zeroGroup buckets phase-2 links matching no existing group.
const zeroGroup = -1

// tpoffMain is phase 2: the grouped frontier served best-group-first under
// frozen benefits.
type tpoffMain struct{ r *tpoffRun }

// SelectNext implements crawlPolicy.
func (p tpoffMain) SelectNext() (string, bool) {
	r := p.r
	if r.grouped.Len() == 0 {
		return "", false
	}
	g := bestGroup(r.grouped.Awake(), r.avg)
	u, ok := r.grouped.PopFrom(g)
	if !ok {
		return "", false
	}
	r.steps++
	return u, true
}

// Ingest implements crawlPolicy.
func (p tpoffMain) Ingest(_ string, pg page) {
	r := p.r
	for _, link := range pg.Links {
		r.eng.seen[link.URL] = true
		if mg, ok := r.actions.Match(link.TagPath); ok {
			r.grouped.Push(mg, link.URL)
		} else {
			r.grouped.Push(zeroGroup, link.URL)
		}
	}
}

// Hints implements crawlPolicy: the exact next draw. Benefits are frozen in
// this phase, so the best awake group is the group the next SelectNext
// serves unless the page now being fetched wakes a better one or pushes
// into this one.
func (p tpoffMain) Hints(int) []string {
	r := p.r
	if r.grouped.Len() == 0 {
		return nil
	}
	if u, ok := r.grouped.PeekFrom(bestGroup(r.grouped.Awake(), r.avg)); ok {
		return []string{u}
	}
	return nil
}

// Run implements Crawler: the BFS warm-up phase and the frozen-benefit
// phase each run through the staged loop.
func (t *tpoff) Run(env *Env) (*Result, error) {
	eng, err := newEngine(env)
	if err != nil {
		return nil, err
	}
	eng.fields = dom.TagPathField
	r := &tpoffRun{
		t:          t,
		eng:        eng,
		env:        env,
		actions:    NewActionIndex(ActionIndexConfig{Theta: t.theta, Seed: t.seed}),
		benefitSum: map[int]float64{},
		benefitCnt: map[int]int{},
		groupOf:    map[string]int{},
	}
	eng.seen[env.Root] = true
	r.bfs.Push(env.Root)
	eng.runStaged(tpoffWarmup{r})

	// Freeze benefits; hand the remaining BFS frontier links, with their
	// groups, to the phase-2 frontier.
	r.grouped = frontier.NewGrouped(t.seed + 7)
	for {
		u, ok := r.bfs.Pop()
		if !ok {
			break
		}
		r.grouped.Push(r.groupOf[u], u)
	}
	eng.runStaged(tpoffMain{r})
	res := eng.result(t.Name(), r.steps)
	r.actions.Release()
	r.grouped.Release()
	return res, nil
}

// bestGroup picks the awake group with the highest frozen average benefit;
// ties and the zero bucket resolve to the smallest ID for determinism, since
// awake is in increasing order (Grouped.Awake).
func bestGroup(awake []int, avg func(int) float64) int {
	best, bestAvg := awake[0], -1.0
	for _, g := range awake {
		a := 0.0
		if g >= 0 {
			a = avg(g)
		}
		if a > bestAvg {
			best, bestAvg = g, a
		}
	}
	return best
}
