package core

import (
	"sbcrawl/internal/bandit"
	"sbcrawl/internal/classify"
	"sbcrawl/internal/dom"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/frontier"
	"sbcrawl/internal/learn"
	"sbcrawl/internal/urlutil"
)

// SBConfig parameterizes the sleeping-bandit crawler (Sections 3.1–3.4).
// The zero value gives the paper's defaults: n=2, m=12, w=15, θ=0.75,
// α=2√2, b=10, logistic regression over URL_ONLY features.
type SBConfig struct {
	// Index holds the action-formation hyper-parameters (n, m, w, θ).
	Index ActionIndexConfig
	// Alpha is the exploration–exploitation coefficient (0 → 2√2).
	Alpha float64
	// Policy overrides the bandit policy (nil → AUER sleeping bandit);
	// used by the policy ablation.
	Policy bandit.Policy
	// Oracle switches to the perfect URL classifier (SB-ORACLE); requires
	// Env.OracleClass.
	Oracle bool
	// Model selects the classifier family ("LR", "SVM", "NB", "PA");
	// empty → "LR".
	Model string
	// Features selects URL_ONLY or URL_CONT.
	Features classify.FeatureSet
	// BatchSize is the classifier batch b (0 → 10).
	BatchSize int
	// EarlyStop enables the Section 4.8 mechanism when non-nil.
	EarlyStop *EarlyStopConfig
	// RawReward switches the reward to the raw count of target links,
	// including already-known ones (reward-definition ablation).
	RawReward bool
	// Seed drives link selection and index construction.
	Seed int64
}

// SB is the paper's crawler: SB-CLASSIFIER, or SB-ORACLE when cfg.Oracle.
type SB struct {
	cfg SBConfig
}

// NewSB builds the crawler.
func NewSB(cfg SBConfig) *SB { return &SB{cfg: cfg} }

// Name implements Crawler.
func (s *SB) Name() string {
	if s.cfg.Oracle {
		return "SB-ORACLE"
	}
	return "SB-CLASSIFIER"
}

// sbRun is the mutable state of one SB crawl.
type sbRun struct {
	cfg     SBConfig
	eng     *engine
	front   *frontier.Grouped
	actions *ActionIndex
	policy  bandit.Policy
	cls     classify.Classifier
	online  *classify.Online // cls, unless it is the oracle
	stopper *earlyStopper
	steps   int
	stopped bool
	// pendingAction is the bandit arm behind the URL SelectNext returned,
	// consumed by the following Ingest.
	pendingAction int
	// awake is the arm set SelectNext last handed the bandit (increasing),
	// kept so Hints asks the bandit again without a second Awake() per step.
	awake []int
	// drawAwake is the arm set a next-draw guess is made on (see drawAhead).
	drawAwake []int
	// hint is the slice Hints returns.
	hint []string
	// ahead is the speculation scratch of ingestPage, used as a stack
	// because a misclassified "target" that turns out to be HTML is ingested
	// inside its parent's loop: the pages being ingested each own the tail
	// they appended (see predictTargets).
	ahead []string
	// batch is the scratch speculate builds a batch of demands in.
	batch []fetch.Demand
}

// Run implements Crawler (Algorithm 3).
func (s *SB) Run(env *Env) (*Result, error) {
	r, err := s.newRun(env)
	if err != nil {
		return nil, err
	}
	// Crawl the root, then run the staged loop: select action, pop a
	// link, crawl it (Algorithm 3 over the select/fetch/ingest stages).
	r.step(env.Root, -1, 0)
	r.eng.runStaged(r)

	res := r.eng.result(s.Name(), r.steps)
	res.EarlyStopped = r.stopped
	res.Actions = r.actionStats()
	if r.online != nil {
		res.Confusion = r.online.Confusion()
		r.online.Release()
	}
	r.actions.Release()
	r.front.Release()
	return res, nil
}

// newRun builds the state of one crawl over env, before its first fetch.
func (s *SB) newRun(env *Env) (*sbRun, error) {
	eng, err := newEngine(env)
	if err != nil {
		return nil, err
	}
	cfg := s.cfg
	eng.fields = linkFields(cfg)
	idxCfg := cfg.Index
	idxCfg.Seed = cfg.Seed
	r := &sbRun{
		cfg:     cfg,
		eng:     eng,
		front:   frontier.NewGrouped(cfg.Seed + 2),
		actions: NewActionIndex(idxCfg),
	}
	if cfg.Policy != nil {
		r.policy = cfg.Policy
	} else if cfg.Alpha > 0 {
		r.policy = bandit.NewSleepingAlpha(cfg.Alpha)
	} else {
		r.policy = bandit.NewSleeping()
	}
	r.cls = s.buildClassifier(env, r)
	r.online, _ = r.cls.(*classify.Online)
	if cfg.EarlyStop != nil {
		r.stopper = newEarlyStopper(*cfg.EarlyStop)
	}
	return r, nil
}

func (s *SB) buildClassifier(env *Env, r *sbRun) classify.Classifier {
	if s.cfg.Oracle {
		return &classify.Oracle{Truth: env.OracleClass}
	}
	model := s.cfg.Model
	if model == "" {
		model = "LR"
	}
	return classify.NewOnline(classify.Config{
		Model:     learn.NewModel(model),
		BatchSize: s.cfg.BatchSize,
		Features:  s.cfg.Features,
		Head: func(u string) int {
			resp, ok := r.eng.head(u)
			if !ok {
				return classify.ClassNeither
			}
			switch {
			case resp.Status >= 200 && resp.Status < 300 && urlutil.IsHTML(resp.MIME):
				return classify.ClassHTML
			case resp.Status >= 200 && resp.Status < 300 && r.eng.mimes.Contains(resp.MIME):
				return classify.ClassTarget
			default:
				return classify.ClassNeither
			}
		},
	})
}

// SelectNext implements crawlPolicy: the bandit picks an awake action, the
// frontier draws a link from it. An empty draw (the action went to sleep)
// retries, as in Algorithm 3.
func (r *sbRun) SelectNext() (string, bool) {
	for r.front.Len() > 0 && !r.stopped {
		r.awake = r.front.AppendAwake(r.awake[:0])
		a, ok := r.policy.Select(r.awake, r.steps)
		if !ok {
			return "", false
		}
		u, ok := r.front.PopFrom(a)
		if !ok {
			continue
		}
		r.policy.RecordSelection(a)
		r.pendingAction = a
		r.steps++ // mirrors step(): the step begins before its fetch
		return u, true
	}
	return "", false
}

// Ingest implements crawlPolicy: the post-fetch half of step(), then the
// early-stopping observation of Section 4.8.
func (r *sbRun) Ingest(_ string, pg page) {
	r.ingestPage(pg, r.pendingAction, 0)
	if r.stopper != nil && r.stopper.Observe(r.steps, r.eng.tcount) {
		r.stopped = true
	}
}

// Hints implements crawlPolicy: the exact link the next SelectNext will
// draw, when the bandit's next arm can be told in advance. It runs between
// this step's SelectNext and its fetch, so the next step's inputs are all
// known but the reward still pending on the arm just played; AUER is asked
// for its choice as if that reward will equal the arm's current mean (no
// score moves), and that arm's next draw is the hint. The guess is wrong
// when the pending page's reward reorders the scores, when the page feeds
// the chosen arm new links or wakes a better one, or when its
// predicted-target fetches advance t far enough to matter — a wasted fetch,
// never a changed crawl: Select on awake arms and PeekFrom only read.
// Assuming a zero reward instead, or hinting both guesses, hit within two
// requests in 250 of this on four sites. Ablation policies (SBConfig.Policy)
// get no next-draw hint: ε-greedy and Thompson spend randomness in Select,
// UCB1 records wasted picks there. While the page is ingested, speculate
// guesses the draw again over the frontier as the page leaves it. The
// returned slice is valid until the next call.
func (r *sbRun) Hints(int) []string {
	awake := r.drawAwake[:0]
	for _, a := range r.awake {
		// The pending arm is asleep if its last link was just drawn.
		if a != r.pendingAction || r.front.ActionLen(a) > 0 {
			awake = append(awake, a)
		}
	}
	r.drawAwake = awake
	u, ok := r.drawAhead(awake)
	if !ok {
		return nil
	}
	r.hint = append(r.hint[:0], u)
	return r.hint
}

// drawAhead is the link the bandit's next draw would take over the given
// awake arms, if the policy is AUER (see Hints).
func (r *sbRun) drawAhead(awake []int) (string, bool) {
	auer, ok := r.policy.(*bandit.Sleeping)
	if !ok {
		return "", false
	}
	a, ok := auer.Select(awake, r.steps)
	if !ok {
		return "", false
	}
	return r.front.PeekFrom(a)
}

// liveDraw is drawAhead over the frontier as it stands.
func (r *sbRun) liveDraw() (string, bool) {
	r.drawAwake = r.front.AppendAwake(r.drawAwake[:0])
	return r.drawAhead(r.drawAwake)
}

// step is Algorithm 4: crawl one URL, then ingest it. Its page's links are
// popped off the engine's link stack when it returns, so a predicted target
// that turns out to be HTML leaves its parent's links on top.
func (r *sbRun) step(u string, action int, depth int) {
	r.steps++
	mark := len(r.eng.links)
	defer r.eng.popLinks(mark)
	pg := r.eng.fetchPage(u)
	if pg.Truncated {
		return
	}
	r.ingestPage(pg, action, depth)
}

// ingestPage classifies a fetched page's new links, pushes HTML links to
// the action frontier, immediately retrieves predicted targets, and folds
// the reward into the chosen action's running mean.
func (r *sbRun) ingestPage(pg page, action int, depth int) {
	const maxPredictedTargetDepth = 16
	reward := 0
	switch {
	case pg.IsHTML:
		r.cls.Observe(pg.FinalURL, classify.ClassHTML)
		// r.ahead[next:] are this page's predicted targets from the cursor
		// on: nested ingests append past them and truncate back, so the
		// range survives the steps below.
		abase := len(r.ahead)
		fits := r.refits()
		r.predictTargets(pg.Links)
		next := abase
		r.speculate(r.ahead[next:], pg.Links)
		for i, link := range pg.Links {
			class, _ := r.cls.Classify(r.linkContext(link))
			target := class == classify.ClassTarget && depth < maxPredictedTargetDepth
			refit := r.refits() != fits
			if refit {
				// The model moved (the first fit ends the HEAD phase): guess
				// the links still to come again, so what it now calls
				// targets is hinted before the loop reaches them.
				fits = r.refits()
				clear(r.ahead[abase:])
				r.ahead = r.ahead[:abase]
				next = abase
				r.predictTargets(pg.Links[i+1:])
			}
			if target || refit {
				r.speculate(r.ahead[next:], pg.Links[i+1:])
			}
			if target {
				before := r.eng.tcount
				r.step(link.URL, action, depth+1)
				if r.cfg.RawReward {
					reward++ // raw: every predicted-target link counts
				} else if r.eng.tcount > before {
					reward++ // novelty: only links that yielded a new target
				}
			} else {
				a := r.actions.ActionFor(link.TagPath)
				r.policy.EnsureArm(a)
				r.eng.seen[link.URL] = true // joins F (T ∪ F membership)
				r.front.Push(a, link.URL)
			}
			if next < len(r.ahead) && r.ahead[next] == link.URL {
				next++
			}
		}
		clear(r.ahead[abase:])
		r.ahead = r.ahead[:abase]
	case pg.IsTarget:
		r.cls.Observe(pg.FinalURL, classify.ClassTarget)
	default:
		r.cls.Observe(pg.FinalURL, classify.ClassNeither)
	}
	if action >= 0 && pg.IsHTML {
		r.policy.RecordReward(action, float64(reward))
	}
}

// refits is the online classifier's fit count (0 for the oracle, which never
// changes its answers).
func (r *sbRun) refits() int {
	if r.online == nil {
		return 0
	}
	return r.online.Refits()
}

// speculate hints what ingestPage's loop will demand from its cursor on, in
// that order, as one batch of at most demandRoom: targets, the page's
// predicted targets still ahead; the HEAD probes of the links still to
// classify (rest) while the classifier labels by HEAD, at most as many as it
// needs before its first fit; then the bandit's next draw over the frontier
// as it stands. That guess is taken again at every call because the page
// keeps moving the frontier, and a wrong one costs a wasted fetch, never a
// changed crawl. The loop calls again as its cursor advances and hands the
// whole batch again: the prefetch layer skips what it already tracks and
// stops at the first demand the in-flight bound refuses.
func (r *sbRun) speculate(targets []string, rest []dom.Link) {
	room := r.eng.demandRoom()
	if room <= 0 {
		return
	}
	b := r.batch[:0]
	for _, u := range targets[:min(len(targets), room)] {
		b = append(b, fetch.Demand{URL: u})
	}
	if r.online != nil {
		for _, l := range rest[:min(len(rest), r.online.LabelsToFit(), room-len(b))] {
			b = append(b, fetch.Demand{URL: l.URL, Head: true})
		}
	}
	if len(b) < room {
		if u, ok := r.liveDraw(); ok {
			b = append(b, fetch.Demand{URL: u})
		}
	}
	if len(b) > 0 {
		r.eng.prefetcher.HintDemands(r.eng.ceiling, b...)
	}
	clear(b)
	r.batch = b[:0]
}

// predictTargets is the in-page half of SB speculation. A trained
// classifier sends every link it calls a target straight to a blocking GET
// inside ingestPage's loop, one round trip after another; here each link's
// class is guessed up front, with the weights as they stand, and the URLs
// guessed to be targets are appended to r.ahead in page order so the loop
// can keep them in flight ahead of its cursor. Nothing is appended for a
// sequential crawl, nor during the HEAD phase (speculate hints the probes
// instead). Guessing reads the model only, so the crawl is the same whether
// or not it runs; the loop featurizes each link again to classify it, which
// costs less than keeping the features.
func (r *sbRun) predictTargets(links []dom.Link) {
	if r.eng.prefetcher == nil {
		return
	}
	switch {
	case r.online == nil:
		for _, l := range links {
			if class, _ := r.cls.Classify(classify.LinkContext{URL: l.URL}); class == classify.ClassTarget {
				r.ahead = append(r.ahead, l.URL)
			}
		}
	case !r.online.InInitialPhase():
		for _, l := range links {
			if r.online.Guess(r.linkContext(l)) == classify.ClassTarget {
				r.ahead = append(r.ahead, l.URL)
			}
		}
	}
}

// linkFields is what SB reads of a link beyond its URL: the tag path for the
// action index, and the texts only for the learned classifier's URL_CONT
// features (the oracle and URL_ONLY features read the URL alone).
func linkFields(cfg SBConfig) dom.Fields {
	if cfg.Features == classify.URLContent && !cfg.Oracle {
		return dom.AllFields
	}
	return dom.TagPathField
}

// linkContext is what the classifier sees of a link. The tag path is only
// rendered for URL_CONT; URL_ONLY features never read it, and the texts are
// empty unless linkFields asked for them.
func (r *sbRun) linkContext(l dom.Link) classify.LinkContext {
	lc := classify.LinkContext{
		URL:             l.URL,
		AnchorText:      l.AnchorText,
		SurroundingText: l.SurroundingText,
	}
	if r.cfg.Features == classify.URLContent {
		lc.TagPath = l.TagPath.String()
	}
	return lc
}

// actionStats snapshots the per-action statistics for Figure 5 / Table 6.
func (r *sbRun) actionStats() []ActionStat {
	n := r.actions.NumActions()
	out := make([]ActionStat, 0, n)
	for a := 0; a < n; a++ {
		out = append(out, ActionStat{
			ID:         a,
			MeanReward: r.policy.MeanReward(a),
			Selections: r.policy.Count(a),
			Paths:      r.actions.PathCount(a),
		})
	}
	return out
}
