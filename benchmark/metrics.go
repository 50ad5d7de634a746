package main

// The metric tables are the single source of the names every later perf or
// simplicity PR cites. BENCHMARK.json is generated from them (-manifest) and
// bench_test.go fails when the two drift apart.

// Workload names (fixed by ISSUE 11).
const (
	wSBCPU   = "sb-cpu"
	wBFS     = "bfs-parse"
	wFleet   = "fleet-latency"
	wFabric  = "fed-fabric"
	wDurable = "durable-resume"
	wCrawld  = "crawld-sessions"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{wSBCPU, "SB-CLASSIFIER to exhaustion at CPU speed on ed/il/be: hnsw, textvec, classify, learn, bandit and the grouped frontier do the work; fetch, store and serve do none"},
	{wBFS, "BFS to exhaustion with auto prefetch and parse-ahead on il/ju: no learning layers, so render, dom, urlutil and per-step overhead dominate; the bypass for any hnsw/learn change"},
	{wFleet, "8 budgeted SB jobs over 4 sites at 2 ms latency with 5% faults, 2 workers and a shared speculation cache: latency-bound, so only SpecCache, Retrier and prefetch move wall time"},
	{wFabric, "BFS to exhaustion over an 8-host federation at 5 ms latency with 4 partitions and auto prefetch: fabric and Prefetcher carry the crawl; the benefit side of speculation"},
	{wDurable, "BFS on ju through a fresh store: cold half crawl, reopen to full, Resume short-circuit, DFS over the warm store; writes beside reads on store, codec and fetch.Replay"},
	{wCrawld, "in-process crawld behind httptest: 8 weighted tenants burst-create sessions into a backlog, then closed-loop create-to-done; drain rate and attach latency as an operator sees them"},
}

var allCrawl = []string{wSBCPU, wBFS, wFleet, wFabric, wDurable}
var allWorkloads = []string{wSBCPU, wBFS, wFleet, wFabric, wDurable, wCrawld}

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen (per-layer metrics
// have none). On lists the workloads that measure a per-layer metric; the
// others report it as 0 because the layer does no work there.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	On     []string
}

// endToEnd metrics are defined on every workload and are never 0. The
// bounds are what the reference box supports, not what ISSUE 11 wished for:
// the driver gives every run another -seed, and over ten seeds the quartile
// spread of the timing metrics reaches 8–14% of the median on the worst
// workload in a calm quarter-hour (README.md has the table) and 24% when the
// box changes speed mid-set. Allocation and target counts do not feel the
// box, so their bounds are tight.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_kreq", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_kreq", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "targets_per_kreq", Unit: "count", Better: "higher", Bound: 0.05},
	{Name: "req_frac_to_90pct", Unit: "ratio", Better: "lower", Bound: 0.25},
}

var sbWorkloads = []string{wSBCPU, wFleet}
var prefetchWorkloads = []string{wBFS, wFleet, wFabric}
var storeWorkloads = []string{wDurable}

// perLayer metrics come from the traced run. The first seven are end-to-end
// quantities of ISSUE 11 that the driver contract cannot hold as end_to_end
// metrics: it wants each of those on every workload and never 0. A resume
// time or a session latency exists on one workload; failed_share is 0 when
// all is well. They are listed here, unbounded, and measured in the traced
// run's untraced pass.
var perLayer = []metricDef{
	{Name: "failed_share", Unit: "ratio", Better: "lower", On: allWorkloads},
	{Name: "resume_wall_s", Unit: "s", Better: "lower", On: storeWorkloads},
	{Name: "store_bytes_per_req", Unit: "B", Better: "lower", On: storeWorkloads},
	{Name: "sessions_per_s", Unit: "1/s", Better: "higher", On: []string{wCrawld}},
	{Name: "attach_p50_ms", Unit: "ms", Better: "lower", On: []string{wCrawld}},
	{Name: "attach_p99_ms", Unit: "ms", Better: "lower", On: []string{wCrawld}},
	{Name: "session_done_p90_ms", Unit: "ms", Better: "lower", On: []string{wCrawld}},

	{Name: "core.steps", Unit: "count", Better: "lower", On: allCrawl},
	{Name: "core.self_s_per_kreq", Unit: "s", Better: "lower", On: allCrawl},
	{Name: "core.fetch_wait_share", Unit: "ratio", Better: "lower", On: allCrawl},
	{Name: "core.late_to_early_rate_ratio", Unit: "ratio", Better: "higher", On: allCrawl},
	{Name: "core.checkpoints", Unit: "count", Better: "lower", On: storeWorkloads},
	{Name: "core.checkpoint_sink_us_p50", Unit: "us", Better: "lower", On: storeWorkloads},
	{Name: "core.parse_ahead_hit_ratio", Unit: "ratio", Better: "higher", On: prefetchWorkloads},
	{Name: "core.duplicate_targets", Unit: "count", Better: "lower", On: allCrawl},
	{Name: "core.unattributed_share", Unit: "ratio", Better: "lower", On: allCrawl},

	{Name: "hnsw.actionfor_us_per_link", Unit: "us", Better: "lower", On: sbWorkloads},
	{Name: "hnsw.nearest_us_p50", Unit: "us", Better: "lower", On: sbWorkloads},
	{Name: "hnsw.index_size", Unit: "count", Better: "lower", On: sbWorkloads},
	{Name: "hnsw.share_of_crawl", Unit: "ratio", Better: "lower", On: sbWorkloads},
	{Name: "hnsw.vs_bruteforce_ratio", Unit: "ratio", Better: "lower", On: sbWorkloads},
	{Name: "textvec.vectorize_ns_per_path", Unit: "ns", Better: "lower", On: sbWorkloads},
	{Name: "classify.classify_ns_per_link", Unit: "ns", Better: "lower", On: sbWorkloads},
	{Name: "classify.head_request_share", Unit: "ratio", Better: "lower", On: sbWorkloads},
	{Name: "learn.partialfit_us_per_batch", Unit: "us", Better: "lower", On: sbWorkloads},
	{Name: "bandit.select_ns_per_step", Unit: "ns", Better: "lower", On: sbWorkloads},
	{Name: "bandit.arms", Unit: "count", Better: "lower", On: sbWorkloads},
	{Name: "frontier.grouped_push_pop_ns", Unit: "ns", Better: "lower", On: sbWorkloads},
	{Name: "frontier.awake_ns", Unit: "ns", Better: "lower", On: sbWorkloads},
	{Name: "frontier.peek_ns", Unit: "ns", Better: "lower", On: prefetchWorkloads},
	{Name: "frontier.snapshot_us", Unit: "us", Better: "lower", On: storeWorkloads},

	{Name: "dom.extract_us_per_page_p50", Unit: "us", Better: "lower", On: allCrawl},
	{Name: "dom.extract_mb_per_s", Unit: "MB/s", Better: "higher", On: allCrawl},
	{Name: "dom.links_per_page", Unit: "count", Better: "lower", On: allCrawl},
	{Name: "dom.allocs_per_page", Unit: "count", Better: "lower", On: allCrawl},
	{Name: "urlutil.normalize_ns_per_link", Unit: "ns", Better: "lower", On: allCrawl},
	{Name: "webserver.render_us_per_page", Unit: "us", Better: "lower", On: allCrawl},
	{Name: "webserver.share_of_crawl", Unit: "ratio", Better: "lower", On: allCrawl},

	{Name: "fetch.backend_calls", Unit: "count", Better: "lower", On: allCrawl},
	{Name: "fetch.backend_busy_s", Unit: "s", Better: "lower", On: allCrawl},
	{Name: "fetch.wasted_fetch_ratio", Unit: "ratio", Better: "lower", On: allCrawl},
	{Name: "fetch.prefetch_hit_ratio", Unit: "ratio", Better: "higher", On: prefetchWorkloads},
	{Name: "fetch.prefetch_launched", Unit: "count", Better: "lower", On: prefetchWorkloads},
	{Name: "fetch.prefetch_evicted", Unit: "count", Better: "lower", On: prefetchWorkloads},
	{Name: "fetch.head_hits", Unit: "count", Better: "higher", On: prefetchWorkloads},
	{Name: "fetch.retries", Unit: "count", Better: "lower", On: []string{wFleet}},
	{Name: "fetch.retry_recovered_ratio", Unit: "ratio", Better: "higher", On: []string{wFleet}},
	{Name: "fetch.breaker_trips", Unit: "count", Better: "lower", On: []string{wFleet}},
	{Name: "fetch.replay_hit_ratio", Unit: "ratio", Better: "higher", On: storeWorkloads},
	{Name: "fetch.response_encode_ns", Unit: "ns", Better: "lower", On: storeWorkloads},
	{Name: "fetch.response_decode_ns", Unit: "ns", Better: "lower", On: storeWorkloads},
	{Name: "fetch.response_codec_allocs", Unit: "count", Better: "lower", On: storeWorkloads},

	{Name: "fabric.demand_hit_ratio", Unit: "ratio", Better: "higher", On: []string{wFabric}},
	{Name: "fabric.forwarded", Unit: "count", Better: "lower", On: []string{wFabric}},
	{Name: "fabric.stalls", Unit: "count", Better: "lower", On: []string{wFabric}},
	{Name: "fabric.max_queue_depth", Unit: "count", Better: "lower", On: []string{wFabric}},
	{Name: "fabric.partition_skew", Unit: "ratio", Better: "lower", On: []string{wFabric}},
	{Name: "fabric.solo_req_per_s", Unit: "1/s", Better: "higher", On: []string{wFabric}},
	{Name: "fabric.envelope_encode_ns", Unit: "ns", Better: "lower", On: []string{wFabric}},

	{Name: "fleet.shared_hit_ratio", Unit: "ratio", Better: "higher", On: []string{wFleet}},
	{Name: "fleet.solo_req_per_s", Unit: "1/s", Better: "higher", On: []string{wFleet}},
	{Name: "fleet.failed_sites", Unit: "count", Better: "lower", On: []string{wFleet}},

	{Name: "store.put_mb_per_s", Unit: "MB/s", Better: "higher", On: storeWorkloads},
	{Name: "store.putbatch_mb_per_s", Unit: "MB/s", Better: "higher", On: storeWorkloads},
	{Name: "store.get_ns_p50", Unit: "ns", Better: "lower", On: storeWorkloads},
	{Name: "store.open_scan_mb_per_s", Unit: "MB/s", Better: "higher", On: storeWorkloads},
	{Name: "store.snapshot_mb_per_s", Unit: "MB/s", Better: "higher", On: storeWorkloads},
	{Name: "store.put_p99_us_during_snapshot", Unit: "us", Better: "lower", On: storeWorkloads},
	{Name: "store.sync_us_p50", Unit: "us", Better: "lower", On: storeWorkloads},
	{Name: "store.garbage_ratio_at_close", Unit: "ratio", Better: "lower", On: []string{wDurable, wCrawld}},
	{Name: "store.bytes_on_disk", Unit: "B", Better: "lower", On: []string{wDurable, wCrawld}},
	{Name: "codec.checkpoint_encode_us", Unit: "us", Better: "lower", On: storeWorkloads},
	{Name: "codec.checkpoint_delta_ratio", Unit: "ratio", Better: "lower", On: storeWorkloads},
	{Name: "codec.allocs_per_roundtrip", Unit: "count", Better: "lower", On: storeWorkloads},

	{Name: "serve.status_p50_ms", Unit: "ms", Better: "lower", On: []string{wCrawld}},
	{Name: "serve.status_p99_ms", Unit: "ms", Better: "lower", On: []string{wCrawld}},
	{Name: "serve.list_ms_at_peak", Unit: "ms", Better: "lower", On: []string{wCrawld}},
	{Name: "serve.peak_sessions", Unit: "count", Better: "higher", On: []string{wCrawld}},
	{Name: "serve.queued_units_peak", Unit: "count", Better: "lower", On: []string{wCrawld}},
	{Name: "serve.fairness_error", Unit: "ratio", Better: "lower", On: []string{wCrawld}},
	{Name: "serve.reload_s", Unit: "s", Better: "lower", On: []string{wCrawld}},
	{Name: "serve.direct_create_us", Unit: "us", Better: "lower", On: []string{wCrawld}},
	{Name: "serve.http_overhead_share", Unit: "ratio", Better: "lower", On: []string{wCrawld}},
	{Name: "serve.session_done_p99_ms", Unit: "ms", Better: "lower", On: []string{wCrawld}},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", On: allWorkloads},
}

func (m metricDef) on(workload string) bool {
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long one driver run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}
