package sbcrawl

// Byte-identity pins for the link path (body bytes → new absolute in-scope
// links). golden_test.go pins only the learning strategies on single-host
// sites, and the equivalence suites compare an accelerated crawl with a
// sequential one of the same build — a urlutil.Normalize that resolved a link
// differently would pass all of them. The fingerprints below were recorded at
// commit 8e5abc9 (PR 13: every link through url.Parse + ResolveReference +
// String, Scope.Contains and HasBlockedExtension re-parsing the result) and
// verified in a pristine `git archive` checkout of that commit, before the
// fast path and the shared host/path split went in. A mismatch means a link
// string changed: do not regenerate.

import (
	"fmt"
	"testing"
)

// goldenBaselineCrawls: the strategies no other pin reaches, on the two
// sites of the bfs-parse workload.
var goldenBaselineCrawls = map[string]string{
	"il/bfs":              "req=1078 targets=80 actions=0 48b92ff18916f2da4173575f",
	"il/dfs":              "req=1078 targets=80 actions=0 d8fcafaf9bc3d6a8e80ab722",
	"il/random/seed1":     "req=1078 targets=80 actions=0 f787d8e5c25209101c47d2af",
	"il/random/seed7":     "req=1078 targets=80 actions=0 809a3ccd4141a6fbed5b4393",
	"il/tres/seed1":       "req=990 targets=80 actions=0 bc0ec9ffee2faebe5ef3533a",
	"il/tres/seed7":       "req=990 targets=80 actions=0 bc0ec9ffee2faebe5ef3533a",
	"il/omniscient":       "req=80 targets=80 actions=0 08bd06ee73c0caecba3cd299",
	"ju/bfs":              "req=1210 targets=296 actions=0 4b962e46a678be3dfdea9782",
	"ju/dfs":              "req=1210 targets=296 actions=0 77300b20feadeeddcb60f3ed",
	"ju/random/seed1":     "req=1210 targets=296 actions=0 6b73800a6cef375a6f4e3733",
	"ju/random/seed7":     "req=1210 targets=296 actions=0 ea377bc870374364019a8b01",
	"ju/tres/seed1":       "req=1132 targets=296 actions=0 e52b55b6c9357fcd8993152d",
	"ju/tres/seed7":       "req=1132 targets=296 actions=0 e52b55b6c9357fcd8993152d",
	"ju/omniscient":       "req=296 targets=296 actions=0 a9a03ae9162e99d98874dc7e",
	"federation/bfs":      "req=20065 targets=3520 actions=0 0e6aece89b646c2fc15ad890",
	"federation/sb/seed1": "req=20072 targets=3520 actions=75 b3aad80bbb67478eb9cf99a9",
	"federation/sb/seed7": "req=20074 targets=3520 actions=128 7950f3955662a796f5fffe1e",
}

func TestGoldenBaselineCrawls(t *testing.T) {
	type run struct {
		name string
		cfg  Config
	}
	baselines := []run{
		{"bfs", Config{Strategy: StrategyBFS}},
		{"dfs", Config{Strategy: StrategyDFS}},
		{"random/seed1", Config{Strategy: StrategyRandom, Seed: 1}},
		{"random/seed7", Config{Strategy: StrategyRandom, Seed: 7}},
		{"tres/seed1", Config{Strategy: StrategyTRES, Seed: 1}},
		{"tres/seed7", Config{Strategy: StrategyTRES, Seed: 7}},
		{"omniscient", Config{Strategy: StrategyOmniscient}},
	}
	check := func(name string, site *Site, cfg Config) {
		res, _, err := execCrawl(cfg, siteCrawlEnv(site, cfg, nil), site.PageCount())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := fmt.Sprintf("req=%d targets=%d actions=%d %s",
			res.Requests, len(res.Targets), len(res.Actions), resultFingerprint(res))
		if want := goldenBaselineCrawls[name]; got != want {
			t.Errorf("%s diverged from the parent commit's crawl:\n got %s\nwant %s", name, got, want)
		}
	}
	for _, sp := range []struct {
		code  string
		scale float64
	}{{"il", 0.001}, {"ju", 0.02}} {
		site, err := GenerateSite(sp.code, sp.scale, 1001)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range baselines {
			check(sp.code+"/"+r.name, site, r.cfg)
		}
	}
	// Multi-host: sub-domain scope, "www." stripping, absolute cross-host
	// links — none of which a single-host site exercises.
	fed, err := GenerateFederation([]string{"ce", "ab", "ju", "is"}, 0.005, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []run{
		{"bfs", Config{Strategy: StrategyBFS}},
		{"sb/seed1", Config{Strategy: StrategySB, Seed: 1}},
		{"sb/seed7", Config{Strategy: StrategySB, Seed: 7}},
	} {
		check("federation/"+r.name, fed, r.cfg)
	}
}
