package experiments

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sbcrawl/internal/sitegen"
)

// The claim configuration. It was declared before any of its runs was
// looked at and must not change after: a claim that fails here is recorded
// in doesNotReproduce, never tuned away by picking seeds, sites or scale.
// A claim reproduces when it holds on at least claimWins of claimSeeds.
const (
	claimScale = 0.004
	claimWins  = 4
	// infCap stands in for a +inf cell (90 % of targets never reached), a
	// worst case that still lets a mean be taken.
	infCap = 200
)

var claimSeeds = []int64{1, 2, 3, 4, 5}

// claimReports are the experiments the claims read, each run once per seed
// at its default sites (table2's are all 18).
var claimReports = []string{
	"table2", "table5", "table4-alpha", "table4-ngram", "table4-theta",
	"ablation-policy", "ablation-reward", "resilience",
}

// headlineSites are the large sites of the paper's headline claim.
var headlineSites = []string{"nc", "ed", "wo", "in"}

// claim is one row of the claim table: a statement about the paper's
// reports and the predicate that checks it on one seed's reports. holds
// returns whether the claim held and the numbers it read.
type claim struct {
	id, source, sites, text string
	holds                   func(r seedReports) (bool, string)
}

var claims = []claim{
	{"C1", "table2", "nc, ed, wo, in",
		"mean req%: SB-CLASSIFIER < FOCUSED < BFS, SB-CLASSIFIER < RANDOM, OMNISCIENT < SB-CLASSIFIER",
		func(r seedReports) (bool, string) {
			tb := r.table("table2")
			m := func(row string) float64 { return tb.mean(row, headlineSites) }
			sb, foc, bfs, rnd, omni := m("SB-CLASSIFIER"), m("FOCUSED"), m("BFS"), m("RANDOM"), m("OMNISCIENT")
			return sb < foc && foc < bfs && sb < rnd && omni < sb,
				fmt.Sprintf("OMNISCIENT %.1f, SB %.1f, FOCUSED %.1f, BFS %.1f, RANDOM %.1f", omni, sb, foc, bfs, rnd)
		}},
	{"C2", "table2", "nc, ed, wo, in",
		"min SB-CLASSIFIER req% ≤ 35",
		func(r seedReports) (bool, string) {
			tb := r.table("table2")
			best := math.Inf(1)
			for _, site := range headlineSites {
				best = min(best, tb.get("SB-CLASSIFIER", site))
			}
			return best <= 35, fmt.Sprintf("min %.1f", best)
		}},
	{"C3", "table4-alpha / -ngram / -theta", "defaults",
		"each default row (a=2sqrt2, n=2, th=0.75) has a mean req% within 10 % of its sweep's best row",
		func(r seedReports) (bool, string) {
			ok, nums := true, []string{}
			for _, sw := range []struct{ id, def string }{
				{"table4-alpha", "a=2sqrt2"}, {"table4-ngram", "n=2"}, {"table4-theta", "th=0.75"},
			} {
				tb := r.table(sw.id)
				def := tb.mean(sw.def, nil)
				best, bestRow := tb.bestRow()
				ok = ok && def <= 1.1*best
				nums = append(nums, fmt.Sprintf("%s %.1f vs %s %.1f", sw.def, def, bestRow, best))
			}
			return ok, strings.Join(nums, "; ")
		}},
	{"C4", "table5", "defaults",
		"URL_ONLY-LR's mean req% is within 10 % of the best variant's",
		func(r seedReports) (bool, string) {
			tb := r.table("table5")
			lr := tb.mean("URL_ONLY-LR", nil)
			best, bestRow := tb.bestRow()
			return lr <= 1.1*best, fmt.Sprintf("URL_ONLY-LR %.1f vs %s %.1f", lr, bestRow, best)
		}},
	{"C5", "table2 early-stopping rows", "all 18",
		"it fires on ≥ 9 sites, and on every fired site Saved req. > Lost targets",
		func(r seedReports) (bool, string) {
			tb := r.table("table2")
			fired, worse := 0, []string{}
			for _, site := range tb.sites() {
				saved, lost := tb.get("Saved req.", site), tb.get("Lost targets", site)
				if saved == 0 && lost == 0 {
					continue // never fired: the report zeroes such a site
				}
				fired++
				if saved <= lost {
					worse = append(worse, fmt.Sprintf("%s %.1f|%.1f", site, saved, lost))
				}
			}
			return fired >= 9 && len(worse) == 0, fmt.Sprintf("fired on %d sites, saved|lost no better on %v", fired, worse)
		}},
	{"C6", "ablation-policy", "defaults",
		"AUER's mean ≤ each of UCB1, eps-greedy and thompson",
		func(r seedReports) (bool, string) {
			tb := r.table("ablation-policy")
			auer := tb.mean("AUER", nil)
			ok, nums := true, []string{fmt.Sprintf("AUER %.1f", auer)}
			for _, other := range []string{"UCB1", "eps-greedy", "thompson"} {
				v := tb.mean(other, nil)
				ok = ok && auer <= v
				nums = append(nums, fmt.Sprintf("%s %.1f", other, v))
			}
			return ok, strings.Join(nums, ", ")
		}},
	{"C7", "ablation-reward", "defaults",
		"novelty's mean ≤ raw-count's",
		func(r seedReports) (bool, string) {
			tb := r.table("ablation-reward")
			nov, raw := tb.mean("novelty", nil), tb.mean("raw-count", nil)
			return nov <= raw, fmt.Sprintf("novelty %.1f, raw-count %.1f", nov, raw)
		}},
	{"C8", "resilience", "defaults",
		"every retry-on row reads 100.0 % recall",
		func(r seedReports) (bool, string) {
			tb := r.table("resilience")
			retry, recall := tb.col("retry"), tb.col("recall%")
			rows, lost := 0, []string{}
			for _, row := range tb.rows {
				if row[retry] != "on" {
					continue
				}
				rows++
				if tb.value(row[recall]) != 100 {
					lost = append(lost, strings.Join(row[:retry+1], " ")+" "+row[recall])
				}
			}
			return rows > 0 && len(lost) == 0, fmt.Sprintf("%d retry-on rows, below 100%%: %v", rows, lost)
		}},
	{"C9", "table2", "cl, cn, qa",
		"SB-CLASSIFIER req% ≤ BFS on each site",
		func(r seedReports) (bool, string) {
			tb := r.table("table2")
			ok, nums := true, []string{}
			for _, site := range []string{"cl", "cn", "qa"} {
				sb, bfs := tb.get("SB-CLASSIFIER", site), tb.get("BFS", site)
				ok = ok && sb <= bfs
				nums = append(nums, fmt.Sprintf("%s %.1f vs %.1f", site, sb, bfs))
			}
			return ok, "SB vs BFS: " + strings.Join(nums, ", ")
		}},
}

// doesNotReproduce is the expected-failure table: the claims the first full
// run of this table found false here, each with the numbers seeds 1–5 read
// then. These rows must keep failing; one that starts holding fails the test
// until it leaves this table and the README's "does not reproduce here".
var doesNotReproduce = map[string]string{
	"C4": "1/5: URL_ONLY-LR 67.5, 66.8, 69.0, 62.5, 67.4 against the best variant's " +
		"55.8, 61.1, 51.3 (URL_CONT-NB), 55.4, 59.8 (URL_ONLY-NB); NB wins on every seed",
	"C6": "2/5: AUER 40.8, 43.7, 27.7, 59.6, 49.8; thompson 38.7 and 51.4 on seeds 1 and 4, " +
		"eps-greedy 46.1 on seed 5",
	"C7": "2/5: novelty 85.4, 82.4, 87.5, 78.6, 79.0; raw-count 79.7, 82.4, 86.0, 81.6, 75.0",
	"C9": "0/5: SB-CLASSIFIER 100.0–120.0 on cl, cn and qa against BFS's 87.5–102.0, above BFS " +
		"on all 15 site-seed pairs. Not the bandit: SB-ORACLE, the same bandit over perfect labels, " +
		"reads 60.0–80.0, below BFS on all 15. Not the HEADs alone: they are 6–9 of SB-CLASSIFIER's " +
		"48–64 requests, and net of all of them it would still read 86.3–102.0. The cause is the URL " +
		"classifier's labels on these 40–51-page sites, a cold start",
}

// diagnoses are the checked causes of doesNotReproduce rows: claim rows over
// the same reports, each declared before it was run, whose id is the row it
// explains plus "-cause". A diagnosis must hold like a claim, on at least
// claimWins seeds.
var diagnoses = []claim{
	{"C9-cause", "table2", "cl, cn, qa",
		"SB-ORACLE req% < BFS on each site: the bandit over perfect labels wins, so C9's loss is the classifier's",
		func(r seedReports) (bool, string) {
			tb := r.table("table2")
			ok, nums := true, []string{}
			for _, site := range []string{"cl", "cn", "qa"} {
				oracle, bfs := tb.get("SB-ORACLE", site), tb.get("BFS", site)
				ok = ok && oracle < bfs
				nums = append(nums, fmt.Sprintf("%s %.1f vs %.1f", site, oracle, bfs))
			}
			return ok, "SB-ORACLE vs BFS: " + strings.Join(nums, ", ")
		}},
}

// TestPaperClaims holds the paper's claims, one row each, over the seeds
// declared above: a row passes when its predicate holds on at least
// claimWins seeds, and a row of doesNotReproduce when it does not. The
// diagnoses run in the same loop and must hold.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("the claim table crawls every seed at scale 0.004")
	}
	if raceEnabled {
		t.Skip("each claim crawl is single-goroutine and TestParallelWorkersPreserveReports races the site fan-out; under -race the table takes ~8x as long")
	}
	for id := range doesNotReproduce {
		if !slices.ContainsFunc(claims, func(c claim) bool { return c.id == id }) {
			t.Errorf("doesNotReproduce names %s, which is no claim", id)
		}
	}
	for _, d := range diagnoses {
		if _, ok := doesNotReproduce[strings.TrimSuffix(d.id, "-cause")]; !ok {
			t.Errorf("diagnosis %s explains no row of doesNotReproduce", d.id)
		}
	}
	runs := make([]map[string]string, len(claimSeeds))
	for i, seed := range claimSeeds {
		runs[i] = map[string]string{}
		for _, id := range claimReports {
			exp, _ := ByID(id)
			var out bytes.Buffer
			cfg := Config{Scale: claimScale, Seed: seed, Runs: 1, Out: &out, Workers: runtime.GOMAXPROCS(0)}
			if err := exp.Run(cfg); err != nil {
				t.Fatalf("%s seed %d: %v", id, seed, err)
			}
			runs[i][id] = out.String()
		}
	}
	for _, c := range slices.Concat(claims, diagnoses) {
		t.Run(c.id, func(t *testing.T) {
			wins, lines := 0, []string{}
			for i, reports := range runs {
				ok, nums := c.holds(seedReports{t, reports})
				if ok {
					wins++
				}
				lines = append(lines, fmt.Sprintf("  seed %d %v: %s", claimSeeds[i], ok, nums))
			}
			msg := fmt.Sprintf("%s [%s; %s] %s: holds on %d/%d seeds\n%s",
				c.id, c.source, c.sites, c.text, wins, len(claimSeeds), strings.Join(lines, "\n"))
			_, expected := doesNotReproduce[c.id]
			switch reproduces := wins >= claimWins; {
			case reproduces && expected:
				t.Errorf("now reproduces: update the table and README\n%s", msg)
			case !reproduces && !expected:
				t.Errorf("does not reproduce\n%s", msg)
			case expected:
				t.Logf("does not reproduce here, as recorded (%s)\n%s", doesNotReproduce[c.id], msg)
			default:
				t.Log(msg)
			}
		})
	}
}

// seedReports are one seed's claim reports, read on behalf of one claim's
// test.
type seedReports struct {
	t       *testing.T
	reports map[string]string
}

// cellJoin joins the two figures of a "req% | vol%" cell into one field.
var cellJoin = regexp.MustCompile(`\|\s+`)

// table reads back the report of experiment id. Every claim report is a
// title line, a header line naming the columns, and rows. A row's last
// len(cols)-1 fields are its cells and the fields before them its label, so
// a label may hold a space ("Saved req."); a line with fewer fields, such as
// table2's early-stopping rule, is not a row.
func (r seedReports) table(id string) reportTable {
	r.t.Helper()
	lines := strings.Split(r.reports[id], "\n")
	if len(lines) < 2 {
		r.t.Fatalf("%s: no header line in %q", id, r.reports[id])
	}
	tb := reportTable{t: r.t, id: id, cols: strings.Fields(lines[1])}
	for _, line := range lines[2:] {
		f := strings.Fields(cellJoin.ReplaceAllString(line, "|"))
		if len(f) < len(tb.cols) {
			continue
		}
		cut := len(f) - len(tb.cols) + 1
		tb.rows = append(tb.rows, append([]string{strings.Join(f[:cut], " ")}, f[cut:]...))
	}
	return tb
}

// reportTable is one report's table: cols from the header line, and rows
// each holding its label then one cell per remaining column.
type reportTable struct {
	t    *testing.T
	id   string
	cols []string
	rows [][]string
}

func (tb reportTable) col(name string) int {
	tb.t.Helper()
	i := slices.Index(tb.cols, name)
	if i < 0 {
		tb.t.Fatalf("%s: no column %q in %v", tb.id, name, tb.cols)
	}
	return i
}

func (tb reportTable) row(label string) []string {
	tb.t.Helper()
	for _, row := range tb.rows {
		if row[0] == label {
			return row
		}
	}
	tb.t.Fatalf("%s: no row %q", tb.id, label)
	return nil
}

// sites lists the columns that name a site, in report order.
func (tb reportTable) sites() []string {
	var out []string
	for _, c := range tb.cols {
		if _, ok := sitegen.ProfileByCode(c); ok {
			out = append(out, c)
		}
	}
	return out
}

// value reads one cell: the first figure of an "a|b" cell (the req% of a
// "req% | vol%" pair), a trailing % dropped, +inf capped at infCap. NA has
// no value and fails the test: no claim reads a site a crawler skips.
func (tb reportTable) value(cell string) float64 {
	tb.t.Helper()
	cell, _, _ = strings.Cut(cell, "|")
	cell = strings.TrimSuffix(cell, "%")
	if cell == "+inf" {
		return infCap
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		tb.t.Fatalf("%s: cell %q is no number", tb.id, cell)
	}
	return v
}

func (tb reportTable) get(row, col string) float64 {
	tb.t.Helper()
	return tb.value(tb.row(row)[tb.col(col)])
}

// mean averages a row over the given sites, or over every site column when
// sites is nil.
func (tb reportTable) mean(row string, sites []string) float64 {
	tb.t.Helper()
	if sites == nil {
		sites = tb.sites()
	}
	sum := 0.0
	for _, s := range sites {
		sum += tb.get(row, s)
	}
	return sum / float64(len(sites))
}

// bestRow returns the lowest mean over every site column and its row.
func (tb reportTable) bestRow() (float64, string) {
	tb.t.Helper()
	best, label := math.Inf(1), ""
	for _, row := range tb.rows {
		if m := tb.mean(row[0], nil); m < best {
			best, label = m, row[0]
		}
	}
	return best, label
}
