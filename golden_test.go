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

	"sbcrawl/internal/classify"
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

// goldenSites are the three sites every pin in this file crawls.
var goldenSites = []struct {
	code  string
	scale float64
}{
	{"ed", 0.012}, // UniqueIDs: the wide-support centroid case
	{"il", 0.001},
	{"be", 0.025},
}

func TestGoldenActionIndexCrawls(t *testing.T) {
	for _, sp := range goldenSites {
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

// goldenClassifierCrawls pins the Algorithm 2 paths the table above does not
// reach: FOCUSED (its own feature layout and a directly held LR) and
// SB-CLASSIFIER under each non-default model family. Recorded at commit
// 8673a8e (PR 12: map-keyed feature vectors, map-keyed weights, sortedIDs)
// before the sorted-slice representation replaced them, and verified in a
// pristine checkout of that commit — never regenerate.
var goldenClassifierCrawls = map[string]string{
	"ed/focused":      "req=1329 targets=125 actions=0 3dc5b09871895979a6014230",
	"ed/sb-SVM/seed1": "req=1338 targets=125 actions=40 5908d2015e09f27be8f0b176",
	"ed/sb-SVM/seed7": "req=1338 targets=125 actions=37 e0d3e9bac3586ed838c2c033",
	"ed/sb-NB/seed1":  "req=1347 targets=125 actions=32 6ef68e77c4a7b7496e644c17",
	"ed/sb-NB/seed7":  "req=1347 targets=125 actions=33 77e498e2510484fe292e8ada",
	"ed/sb-PA/seed1":  "req=1338 targets=125 actions=38 5b5dd544ca95277b2138e578",
	"ed/sb-PA/seed7":  "req=1338 targets=125 actions=32 cf8d8c3b2482fd91f0f9266a",
	"il/focused":      "req=1078 targets=80 actions=0 5b1cfea12a9bacd7bd361ae9",
	"il/sb-SVM/seed1": "req=1087 targets=80 actions=14 7900122d3870de2715fda793",
	"il/sb-SVM/seed7": "req=1087 targets=80 actions=12 28a2fc3e6a445961b98e3f92",
	"il/sb-NB/seed1":  "req=1088 targets=80 actions=15 40c004053d7eb118453b05f9",
	"il/sb-NB/seed7":  "req=1088 targets=80 actions=15 10c35eabfe98faf20e54d2e9",
	"il/sb-PA/seed1":  "req=1087 targets=80 actions=15 f8295fe6fe3343e00df6e724",
	"il/sb-PA/seed7":  "req=1088 targets=80 actions=13 62eead0c2877055b83589228",
	"be/focused":      "req=834 targets=395 actions=0 c24de78de997ad29bdf80e6c",
	"be/sb-SVM/seed1": "req=843 targets=395 actions=46 b39244b0e35b9609b600f477",
	"be/sb-SVM/seed7": "req=843 targets=395 actions=45 e574155e71a75943608db9b1",
	"be/sb-NB/seed1":  "req=843 targets=395 actions=44 d554f3ae17cc72beec893730",
	"be/sb-NB/seed7":  "req=843 targets=395 actions=42 bc8a56b3fedc2f80a1374f73",
	"be/sb-PA/seed1":  "req=843 targets=395 actions=47 2d892e87019c70632418fb55",
	"be/sb-PA/seed7":  "req=843 targets=395 actions=46 2eebf83c44f627995ce1ba7f",
}

func TestGoldenClassifierCrawls(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"focused", Config{Strategy: StrategyFocused}},
		{"sb-SVM/seed1", Config{Strategy: StrategySB, ClassifierModel: "SVM", Seed: 1}},
		{"sb-SVM/seed7", Config{Strategy: StrategySB, ClassifierModel: "SVM", Seed: 7}},
		{"sb-NB/seed1", Config{Strategy: StrategySB, ClassifierModel: "NB", Seed: 1}},
		{"sb-NB/seed7", Config{Strategy: StrategySB, ClassifierModel: "NB", Seed: 7}},
		{"sb-PA/seed1", Config{Strategy: StrategySB, ClassifierModel: "PA", Seed: 1}},
		{"sb-PA/seed7", Config{Strategy: StrategySB, ClassifierModel: "PA", Seed: 7}},
	}
	for _, sp := range goldenSites {
		site, err := GenerateSite(sp.code, sp.scale, 1001)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			name := sp.code + "/" + c.name
			res, _, err := execCrawl(c.cfg, siteCrawlEnv(site, c.cfg, nil), site.PageCount())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := fmt.Sprintf("req=%d targets=%d actions=%d %s",
				res.Requests, len(res.Targets), len(res.Actions), resultFingerprint(res))
			if want := goldenClassifierCrawls[name]; got != want {
				t.Errorf("%s diverged from the parent commit's crawl:\n got %s\nwant %s", name, got, want)
			}
		}
	}
}

// goldenURLContentCrawls pins SB-CLASSIFIER over URL_CONT features, which
// has no public Config field and is reached through core.SBConfig here.
// Recorded at commit 8673a8e like the table above — never regenerate.
var goldenURLContentCrawls = map[string]string{
	"ed/LR/seed1": "req=1338 targets=125 actions=34 7095931a5ac932405a85c8dc",
	"ed/LR/seed7": "req=1338 targets=125 actions=32 47be99b4a4b02196bcc0585c",
	"ed/NB/seed1": "req=1338 targets=125 actions=27 bb39d5d4b4270bc49426a3aa",
	"ed/NB/seed7": "req=1338 targets=125 actions=29 a60622e666c185317f493951",
	"il/LR/seed1": "req=1087 targets=80 actions=12 c3ca4d2a21473ac58733daa3",
	"il/LR/seed7": "req=1087 targets=80 actions=12 7e5457c6e0e89b5de1fa7137",
	"il/NB/seed1": "req=1087 targets=80 actions=6 5ccfb61fe79c292e93c13e12",
	"il/NB/seed7": "req=1087 targets=80 actions=8 6848ab6b43acee580f15cddb",
	"be/LR/seed1": "req=843 targets=395 actions=46 d90514cc8b97227121ec45f1",
	"be/LR/seed7": "req=843 targets=395 actions=45 4947f544ec2d88e40c6f52ae",
	"be/NB/seed1": "req=844 targets=395 actions=41 d53d0e4b7db2fc0607dad54d",
	"be/NB/seed7": "req=844 targets=395 actions=41 66f6312b5088ce7d901d514d",
}

func TestGoldenURLContentCrawls(t *testing.T) {
	for _, sp := range goldenSites {
		site, err := GenerateSite(sp.code, sp.scale, 1001)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{"LR", "NB"} {
			for _, seed := range []int64{1, 7} {
				name := fmt.Sprintf("%s/%s/seed%d", sp.code, model, seed)
				crawler := core.NewSB(core.SBConfig{Features: classify.URLContent, Model: model, Seed: seed})
				res, err := crawler.Run(siteCrawlEnv(site, Config{}, nil))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := fmt.Sprintf("req=%d targets=%d actions=%d %s",
					res.Requests, len(res.Targets), len(res.Actions), resultFingerprint(res))
				if want := goldenURLContentCrawls[name]; got != want {
					t.Errorf("%s diverged from the parent commit's crawl:\n got %s\nwant %s", name, got, want)
				}
			}
		}
	}
}
