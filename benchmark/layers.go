package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// layers runs the traced pass of a crawl workload and assembles its
// per-layer metrics from three sources: spans at the wrapped interfaces,
// the program's own Result counters, and the layer replays.
func (r *crawlRunner) layers(tr *tracer) (map[string]float64, passStats, error) {
	run, err := r.traced(tr)
	if err != nil {
		return nil, passStats{}, err
	}
	m, err := r.assemble(tr, run)
	return m, run.pass, err
}

// explainedKey and cpuKey carry the two sides of core.unattributed_share out
// of assemble, for a workload that explains more CPU afterwards (they are not
// reported metrics).
const (
	explainedKey = "internal.explained_s"
	cpuKey       = "internal.cpu_s"
)

// assemble turns a finished traced pass into metrics.
func (r *crawlRunner) assemble(tr *tracer, run *tracedRun) (map[string]float64, error) {
	if run.pass.failed > 0 {
		return nil, fmt.Errorf("traced pass differs from the reference, layer numbers are void: %s", strings.Join(run.pass.mismatches, "; "))
	}
	var err error
	m := map[string]float64{}
	pass := run.pass
	kreq := float64(pass.requests) / 1000
	isFetch := func(s span) bool { return s.Pass == tr.pass && (s.Name == spanGet || s.Name == spanHead) }
	calls, fetchBusy, fetchUnion, _ := tr.covered(isFetch)
	_, sinkBusy, sinkUnion, sinkDurs := tr.covered(func(s span) bool { return s.Pass == tr.pass && s.Name == spanSink })
	selects, selectBusy, _, _ := tr.covered(func(s span) bool { return s.Pass == tr.pass && s.Name == spanSelect })

	// Counters the program reports itself.
	var steps, heads, parseHits, actions, checkpoints int
	var launched, hits, misses, evicted, headHits, sharedHits int
	var retries, recovered, exhausted, trips int
	for _, res := range run.results {
		if res == nil {
			continue
		}
		steps += res.Steps
		heads += res.HeadRequests
		parseHits += res.ParseHits
		actions += len(res.Actions)
		if sp := res.Spec; sp != nil {
			launched += sp.Launched
			hits += sp.Hits
			misses += sp.Misses
			evicted += sp.Evicted
			headHits += sp.HeadHits
			sharedHits += sp.SharedHits
		}
		if f := res.Faults; f != nil {
			retries += f.Retries
			recovered += f.RetrySuccesses
			exhausted += f.Exhausted
			trips += f.BreakerTrips
		}
		if fb := res.Fabric; fb != nil {
			m["fabric.demand_hit_ratio"] = ratio(float64(fb.DemandHits), float64(fb.DemandHits+fb.DemandMisses))
			m["fabric.forwarded"] = float64(fb.Forwarded)
			m["fabric.stalls"] = float64(fb.Stalls)
			m["fabric.max_queue_depth"] = float64(fb.MaxQueueDepth)
			total, max := 0, 0
			for _, n := range fb.PartitionFetches {
				total += n
				if n > max {
					max = n
				}
			}
			m["fabric.partition_skew"] = ratio(float64(max)*float64(len(fb.PartitionFetches)), float64(total))
		}
	}
	var ratios []float64
	for _, jt := range run.jobs {
		checkpoints += jt.checkpoints
		if lr, ok := lateToEarly(tr, jt); ok {
			ratios = append(ratios, lr)
		}
	}

	// Replays.
	acc := &layerAcc{}
	replay := tr.begin("replay", run.root)
	for i, jt := range run.jobs {
		replayCrawl(jt, r.jobs[i], acc)
	}
	tr.end(replay)
	// A URL the boundary served twice rendered twice.
	renderS := acc.renderS * ratio(float64(calls), float64(acc.pages))
	explained := acc.explained() - acc.renderS + renderS + selectBusy + sinkBusy

	m["core.steps"] = float64(steps)
	m["core.self_s_per_kreq"] = (pass.wall - fetchUnion - sinkUnion) / kreq
	m["core.fetch_wait_share"] = fetchUnion / pass.wall
	m["core.late_to_early_rate_ratio"] = median(ratios)
	m["core.checkpoints"] = float64(checkpoints)
	m["core.checkpoint_sink_us_p50"] = median(sinkDurs) * 1e6
	m["core.parse_ahead_hit_ratio"] = ratio(float64(parseHits), float64(acc.htmlPages))
	m["core.duplicate_targets"] = float64(pass.duplicates)
	m["core.unattributed_share"] = 1 - explained/pass.cpu
	m[explainedKey], m[cpuKey] = explained, pass.cpu

	m["hnsw.actionfor_us_per_link"] = ratio(acc.actionS, float64(acc.actionLinks)) * 1e6
	m["hnsw.nearest_us_p50"] = median(acc.nearestDur) * 1e6
	m["hnsw.index_size"] = float64(actions)
	m["hnsw.share_of_crawl"] = acc.actionS / pass.cpu
	m["hnsw.vs_bruteforce_ratio"] = ratio(acc.hnswSampleS, acc.bruteS)
	m["textvec.vectorize_ns_per_path"] = ratio(acc.vecS, float64(len(acc.nearestDur))) * 1e9
	m["classify.classify_ns_per_link"] = ratio(acc.classifyS-acc.fitS, float64(acc.classified)) * 1e9
	m["classify.head_request_share"] = ratio(float64(heads), float64(pass.requests))
	m["learn.partialfit_us_per_batch"] = ratio(acc.fitS, float64(acc.fitBatches)) * 1e6
	m["bandit.select_ns_per_step"] = ratio(selectBusy, float64(selects)) * 1e9
	m["bandit.arms"] = float64(actions)
	m["frontier.grouped_push_pop_ns"] = ratio(acc.pushPopS, float64(acc.pushPops)) * 1e9
	m["frontier.awake_ns"] = ratio(acc.awakeS, float64(acc.awakes)) * 1e9
	m["frontier.peek_ns"] = ratio(acc.peekS, float64(acc.peeks)) * 1e9
	m["frontier.snapshot_us"] = median(acc.snapshots) * 1e6

	m["dom.extract_us_per_page_p50"] = median(acc.domDur) * 1e6
	m["dom.extract_mb_per_s"] = ratio(float64(acc.domBytes)/1e6, sum(acc.domDur))
	m["dom.links_per_page"] = ratio(float64(acc.links), float64(acc.htmlPages))
	m["dom.allocs_per_page"] = acc.domAlloc
	m["urlutil.normalize_ns_per_link"] = ratio(acc.normS, float64(acc.normLinks)) * 1e9
	m["webserver.render_us_per_page"] = ratio(acc.renderS, float64(acc.pages)) * 1e6
	m["webserver.share_of_crawl"] = renderS / pass.cpu

	m["fetch.backend_calls"] = float64(calls)
	m["fetch.backend_busy_s"] = fetchBusy
	// Below 0 the caches above the boundary answered more requests than
	// speculation wasted; nothing was wasted on balance.
	m["fetch.wasted_fetch_ratio"] = math.Max(0, ratio(float64(calls-pass.requests), float64(calls)))
	// GETs the crawl's own speculation window answered; what the fleet-shared
	// cache answered is fleet.shared_hit_ratio.
	m["fetch.prefetch_hit_ratio"] = math.Max(0, ratio(float64(hits-sharedHits), float64(hits+misses)))
	m["fetch.prefetch_launched"] = float64(launched)
	m["fetch.prefetch_evicted"] = float64(evicted)
	m["fetch.head_hits"] = float64(headHits)
	m["fetch.retries"] = float64(retries)
	m["fetch.retry_recovered_ratio"] = ratio(float64(recovered), float64(recovered+exhausted))
	m["fetch.breaker_trips"] = float64(trips)

	switch r.name {
	case wFleet:
		m["fleet.shared_hit_ratio"] = ratio(float64(sharedHits), float64(pass.requests))
		failed := 0
		for _, res := range run.results {
			if res == nil {
				failed++
			}
		}
		m["fleet.failed_sites"] = float64(failed)
		opts := *r.fleetOpts
		opts.SharedSpeculation = false
		if m["fleet.solo_req_per_s"], err = r.soloRate(r.cfg, &opts); err != nil {
			return nil, err
		}
	case wFabric:
		cfg := r.cfg
		cfg.Prefetch = 0
		if m["fabric.solo_req_per_s"], err = r.soloRate(cfg, nil); err != nil {
			return nil, err
		}
		m["fabric.envelope_encode_ns"] = envelopeEncodeNS(run.jobs[0].gets)
	}
	return m, nil
}

// lateToEarly compares the rate of backend calls in the last tenth of a
// crawl with the first tenth: above 1 the crawl sped up as it went, below 1
// it slowed down. ISSUE 11 asked for Config.Progress timestamps, but a
// progress hook makes the engine snapshot its frontier (and the fabric its
// partitions) at every tick, which slowed the traced fed-fabric pass by
// 20–100%; the fetch-boundary spans cost nothing extra.
func lateToEarly(tr *tracer, jt *jobTrace) (float64, bool) {
	tr.mu.Lock()
	start := tr.spans[jt.span].Start
	var ends []int64
	for _, s := range tr.spans {
		if s.Parent == jt.span && (s.Name == spanGet || s.Name == spanHead) {
			ends = append(ends, s.End)
		}
	}
	tr.mu.Unlock()
	n := len(ends)
	if n < 20 {
		return 0, false
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	k := n / 10
	early := float64(ends[k-1]-start) / float64(k)
	late := float64(ends[n-1]-ends[n-1-k]) / float64(k)
	return ratio(early, late), true
}
