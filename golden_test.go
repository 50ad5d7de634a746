package sbcrawl

// Byte-identity pin for the action-index strategies. The fingerprints below
// were recorded from commit 40af39a (PR 11, dense Algorithm 1: a 4096-slot
// vector per link, dense dot products in HNSW) before the sparse action
// index replaced it. The sparse arithmetic skips only exact ±0 terms in the
// same ascending order, so every similarity, norm and centroid — and with
// them every action assignment, bandit choice and fetched URL — must repeat
// bit for bit. A mismatch here means the crawl changed, not the table: do
// not regenerate the fingerprints to make it pass.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"sbcrawl/internal/core"
)

// resultFingerprint hashes everything Algorithm 1 can influence: the
// targets in retrieval order, the request tallies, the full per-request
// trace, and the per-action statistics.
func resultFingerprint(res *core.Result) string {
	h := sha256.New()
	var b [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	num(uint64(len(res.Targets)))
	for _, u := range res.Targets {
		num(uint64(len(u)))
		h.Write([]byte(u))
	}
	num(uint64(res.Requests))
	num(uint64(res.HeadRequests))
	num(uint64(res.Steps))
	num(uint64(len(res.Trace.Targets)))
	for i := range res.Trace.Targets {
		num(uint64(res.Trace.Targets[i]))
		num(uint64(res.Trace.TargetBytes[i]))
		num(uint64(res.Trace.NonTargetBytes[i]))
	}
	num(uint64(len(res.Actions)))
	for _, a := range res.Actions {
		num(uint64(a.ID))
		num(uint64(a.Paths))
		num(uint64(a.Selections))
		num(math.Float64bits(a.MeanReward))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// goldenActionIndexCrawls: recorded at commit 40af39a, see the file comment.
var goldenActionIndexCrawls = map[string]string{
	"ed/sb/seed1":        "req=1338 targets=125 actions=41 ce9b25db644872e125b6cb86",
	"ed/sb/seed7":        "req=1338 targets=125 actions=37 255b43bbafdc7c81df254ffe",
	"ed/sb-oracle/seed1": "req=1329 targets=125 actions=31 6bb7ed1c8a7a8ec97e85f21d",
	"ed/sb-oracle/seed7": "req=1329 targets=125 actions=29 277a6c7f158b037bb6c41caa",
	"ed/tpoff/seed1":     "req=1329 targets=125 actions=0 8cc8a891d68e6ab9f6ff55a5",
	"ed/tpoff/seed7":     "req=1329 targets=125 actions=0 ee8d1e94dd8c98b008a1924b",
	"il/sb/seed1":        "req=1087 targets=80 actions=15 845d366a956e92f49632003c",
	"il/sb/seed7":        "req=1087 targets=80 actions=12 c353fcf68ccaed3492f96d11",
	"il/sb-oracle/seed1": "req=1078 targets=80 actions=10 19b29cfdae8bc6d1f48808ed",
	"il/sb-oracle/seed7": "req=1078 targets=80 actions=11 b0a7cc5576a259fefc26c98e",
	"il/tpoff/seed1":     "req=1078 targets=80 actions=0 220af3e064fd2c68b22351da",
	"il/tpoff/seed7":     "req=1078 targets=80 actions=0 9705fd4d412c5e481e591675",
	"be/sb/seed1":        "req=843 targets=395 actions=46 3ca49c50ce755b26707b1e4a",
	"be/sb/seed7":        "req=843 targets=395 actions=49 7252e4e4478bf0402d92a61d",
	"be/sb-oracle/seed1": "req=834 targets=395 actions=42 7814a7785dd7ed39241b9a7c",
	"be/sb-oracle/seed7": "req=834 targets=395 actions=43 1e7287e39fae9d6fa4daed1b",
	"be/tpoff/seed1":     "req=834 targets=395 actions=0 edcd07d31fd345612cf4c04a",
	"be/tpoff/seed7":     "req=834 targets=395 actions=0 2bb7baad8ea9220883a3bd5a",
}

func TestGoldenActionIndexCrawls(t *testing.T) {
	sites := []struct {
		code  string
		scale float64
	}{
		{"ed", 0.012}, // UniqueIDs: the wide-support centroid case
		{"il", 0.001},
		{"be", 0.025},
	}
	for _, sp := range sites {
		site, err := GenerateSite(sp.code, sp.scale, 1001)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{StrategySB, StrategySBOracle, StrategyTPOff} {
			for _, seed := range []int64{1, 7} {
				name := fmt.Sprintf("%s/%s/seed%d", sp.code, strat, seed)
				cfg := Config{Strategy: strat, Seed: seed}
				res, _, err := execCrawl(cfg, siteCrawlEnv(site, cfg, nil), site.PageCount())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := fmt.Sprintf("req=%d targets=%d actions=%d %s",
					res.Requests, len(res.Targets), len(res.Actions), resultFingerprint(res))
				if want := goldenActionIndexCrawls[name]; got != want {
					t.Errorf("%s diverged from the parent commit's crawl:\n got %s\nwant %s", name, got, want)
				}
			}
		}
	}
}
