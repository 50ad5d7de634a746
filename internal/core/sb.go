package core

import (
	"slices"

	"sbcrawl/internal/bandit"
	"sbcrawl/internal/classify"
	"sbcrawl/internal/dom"
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
	stopper *earlyStopper
	steps   int
	stopped bool
	// pendingAction is the bandit arm behind the URL SelectNext returned,
	// consumed by the following Ingest.
	pendingAction int
	// awake is the arm set SelectNext last handed the bandit (increasing),
	// kept so Hints asks the bandit again without a second Awake() per step.
	awake []int
	// ahead is the speculation scratch of ingestPage, used as a stack
	// because a misclassified "target" that turns out to be HTML is ingested
	// inside its parent's loop: the pages being ingested each own the tail
	// they appended (see predictTargets).
	ahead []string
}

// Run implements Crawler (Algorithm 3).
func (s *SB) Run(env *Env) (*Result, error) {
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
	if cfg.EarlyStop != nil {
		r.stopper = newEarlyStopper(*cfg.EarlyStop)
	}

	// Crawl the root, then run the staged loop: select action, pop a
	// link, crawl it (Algorithm 3 over the select/fetch/ingest stages).
	r.step(env.Root, -1, 0)
	eng.runStaged(r)

	res := eng.result(s.Name(), r.steps)
	res.EarlyStopped = r.stopped
	res.Actions = r.actionStats()
	if online, ok := r.cls.(*classify.Online); ok {
		res.Confusion = online.Confusion()
		online.Release()
	}
	r.actions.Release()
	r.front.Release()
	return res, nil
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
		r.awake = r.front.Awake()
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
// UCB1 records wasted picks there.
func (r *sbRun) Hints(int) []string {
	auer, ok := r.policy.(*bandit.Sleeping)
	if !ok {
		return nil
	}
	awake := r.awake
	if r.front.ActionLen(r.pendingAction) == 0 { // its last link was just drawn
		if i, ok := slices.BinarySearch(awake, r.pendingAction); ok {
			awake = slices.Delete(awake, i, i+1)
		}
	}
	a, ok := auer.Select(awake, r.steps)
	if !ok {
		return nil
	}
	if u, ok := r.front.PeekFrom(a); ok {
		return []string{u}
	}
	return nil
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
		r.speculateWarmup(pg.Links)
		abase := len(r.ahead)
		r.predictTargets(pg.Links)
		next, end := abase, len(r.ahead)
		for _, link := range pg.Links {
			class, _ := r.cls.Classify(r.linkContext(link))
			if class == classify.ClassTarget && depth < maxPredictedTargetDepth {
				// r.ahead[next:end] are this page's predicted targets from
				// this link on (nested ingests append past end and truncate
				// back, so the range survives the step below).
				r.eng.speculateGets(r.ahead[next:end])
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
			if next < end && r.ahead[next] == link.URL {
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

// speculateWarmup overlaps the classifier's initial-phase HEAD probes:
// while Algorithm 2 still labels links by HEAD request, this page's links
// are about to be probed one by one in the loop below, so their HEADs are
// hinted to the speculation layer and the round trips proceed concurrently
// ahead of the strictly sequential charged probes. A no-op once the
// classifier has trained (probes stop) and for the oracle classifier
// (which never probes).
func (r *sbRun) speculateWarmup(links []dom.Link) {
	if r.eng.prefetcher == nil || len(links) == 0 {
		return
	}
	online, ok := r.cls.(*classify.Online)
	if !ok || !online.InInitialPhase() {
		return
	}
	urls := make([]string, len(links))
	for i, l := range links {
		urls[i] = l.URL
	}
	r.eng.speculateHeads(urls)
}

// predictTargets is the in-page half of SB speculation. A trained
// classifier sends every link it calls a target straight to a blocking GET
// inside ingestPage's loop, one round trip after another; here each link's
// class is guessed once up front, with the weights as they stand, and the
// URLs guessed to be targets are appended to r.ahead in page order so the
// loop can keep a window of them in flight ahead of its cursor. Nothing is
// appended for a sequential crawl, nor during the HEAD phase
// (speculateWarmup hints the probes instead). Guessing reads the model only,
// so the crawl is the same whether or not it runs; the loop featurizes each
// link again to classify it, which costs less than keeping the features.
func (r *sbRun) predictTargets(links []dom.Link) {
	if r.eng.prefetcher == nil {
		return
	}
	switch cls := r.cls.(type) {
	case *classify.Oracle:
		for _, l := range links {
			if class, _ := cls.Classify(classify.LinkContext{URL: l.URL}); class == classify.ClassTarget {
				r.ahead = append(r.ahead, l.URL)
			}
		}
	case *classify.Online:
		if cls.InInitialPhase() {
			return
		}
		for _, l := range links {
			if cls.Guess(r.linkContext(l)) == classify.ClassTarget {
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
