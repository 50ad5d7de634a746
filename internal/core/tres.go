package core

import (
	"strings"

	"sbcrawl/internal/classify"
	"sbcrawl/internal/dom"
	"sbcrawl/internal/frontier"
)

// TRESKeywords is the initial keyword set the paper hand-crafts for the
// TRES baseline (Appendix B.2): terms likely to appear in anchors of links
// to targets.
var TRESKeywords = []string{
	"pdf", "xls", "csv", "tar", "zip", "rar", "rdf", "json", "doc", "xml",
	"yaml", "txt", "tsv", "ppt", "ods", "dta", "7z", "ttl", "file",
	"document", "report", "publication", "dataset", "data", "download",
	"archive", "spreadsheet", "table", "list", "resource", "annex",
	"supplement", "attachment", "proceedings", "survey", "material",
	"output", "content", "statistics", "article", "paper", "metadata",
	"fact", "download file", "download document", "available for download",
	"access data", "view report", "get dataset", "data file", "read more",
	"resource list", "get document", "download pulication",
	"document archive", "supporting materials", "export data",
	"download csv", "download pdf", "download xls", "dataset download",
	"attached document", "official documents", "browse files",
	"download statistics", "download article", "annual report",
	"white paper", "technical documentation", "technical report",
	"raw data", "metadata file", "open data", "fact sheet",
}

// tres is the behavioural stand-in for the TRES topical crawler (ref. [37])
// under the adaptations of Section 4.3. It keeps TRES's decision structure —
// keyword-based relevance over anchors and page text, a priority frontier of
// HTML pages only — together with the paper's three unfair advantages:
// (i) the hand-crafted keyword list, (ii) relevance pre-training (our scorer
// needs none; keyword hits are its model), and (iii) a free URL-type oracle.
// Per the adaptation, predicted-target links are fetched immediately.
//
// TRES's scalability wall (tree-expansion feature evaluations that exceed
// one minute per request on larger sites) is modeled by a limit on the size
// of the explored tree (discovered URLs): when it outgrows the limit,
// per-step cost crosses the paper's 1-minute stop rule and the crawl halts.
type tres struct {
	keywords  []string
	treeLimit int
}

// NewTRES builds the baseline. treeLimit models the 1-minute-per-request
// stop rule via the explored-tree size (0 → 2000 URLs).
func NewTRES(treeLimit int) Crawler {
	if treeLimit <= 0 {
		treeLimit = 2000
	}
	return &tres{keywords: TRESKeywords, treeLimit: treeLimit}
}

// Name implements Crawler.
func (t *tres) Name() string { return "TRES" }

// relevance counts keyword hits in the text (case-insensitive).
func (t *tres) relevance(text string) float64 {
	lower := strings.ToLower(text)
	score := 0.0
	for _, kw := range t.keywords {
		if strings.Contains(lower, kw) {
			score++
		}
	}
	return score
}

// tresRun is one TRES crawl expressed as a staged policy.
type tresRun struct {
	t     *tres
	eng   *engine
	env   *Env
	pq    frontier.Priority
	steps int
}

// SelectNext implements crawlPolicy.
func (r *tresRun) SelectNext() (string, bool) {
	if len(r.eng.seen) > r.t.treeLimit {
		// Tree-expansion cost exceeds the 1-minute rule: stop.
		return "", false
	}
	u, _, ok := r.pq.Pop()
	if !ok {
		return "", false
	}
	r.steps++
	return u, true
}

// Ingest implements crawlPolicy: score the page's HTML links into the
// frontier and fetch predicted targets immediately (adaptation iii). A
// mid-ingest truncation simply stops the inner fetches; the staged loop
// then winds down on its own budget check.
func (r *tresRun) Ingest(_ string, pg page) {
	if !pg.IsHTML {
		return
	}
	pageRel := 0.0
	for _, link := range pg.Links {
		pageRel += r.t.relevance(link.AnchorText)
	}
	for _, link := range pg.Links {
		switch r.env.OracleClass(link.URL) {
		case classify.ClassTarget: // fetched immediately (adaptation iii)
			r.eng.seen[link.URL] = true
			r.steps++
			if tp := r.eng.fetchPage(link.URL); tp.Truncated {
				return
			}
		case classify.ClassHTML: // scored into the frontier
			r.eng.seen[link.URL] = true
			r.pq.Push(link.URL, r.t.relevance(link.AnchorText)+0.2*pageRel)
		default:
			// Neither: TRES only accepts HTML pages; skipped for free
			// thanks to the oracle.
			r.eng.seen[link.URL] = true
		}
	}
}

// Hints implements crawlPolicy.
func (r *tresRun) Hints(n int) []string { return r.pq.Peek(n) }

// Run implements Crawler via the staged loop.
func (t *tres) Run(env *Env) (*Result, error) {
	eng, err := newEngine(env)
	if err != nil {
		return nil, err
	}
	if env.OracleClass == nil {
		// TRES cannot run without its URL-type oracle (Sec. 4.3).
		return eng.result(t.Name(), 0), nil
	}
	eng.fields = dom.AnchorTextField
	r := &tresRun{t: t, eng: eng, env: env}
	eng.seen[env.Root] = true
	r.pq.Push(env.Root, 0)
	eng.runStaged(r)
	return eng.result(t.Name(), r.steps), nil
}
