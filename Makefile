# Developer and CI entry points. `make ci` is the tier-1 verification gate,
# defined once in scripts/ci.sh: build, vet, gofmt, the grep gates, the full
# test suite, the same suite under the race detector (the fleet orchestrator
# runs crawls concurrently — race-clean is a hard requirement, see
# ROADMAP.md), the allocation gates, bench smokes and time-boxed fuzzing.

GO ?= go

.PHONY: ci build vet test race benchmark bench bench-run bench-store bench-codec bench-serve fleet-bench pipeline-bench speculation-bench

ci:
	sh scripts/ci.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository's one trusted benchmark (BENCHMARK.json): six workloads,
# end-to-end and per-layer metrics, every pass output-checked. See
# benchmark/README.md; cite these metrics, not the BENCH_*.json rows below.
benchmark:
	$(GO) run ./benchmark

# Record the perf trajectory: full benchmark suite → BENCH_engine.json.
bench:
	sh scripts/bench.sh

# Run the benchmarks without recording (quick local look).
bench-run:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The sequential-vs-parallel fleet speedup tracked in the perf trajectory.
fleet-bench:
	$(GO) test -run '^$$' -bench BenchmarkFleetParallel -benchtime 3x .

# The sequential-vs-pipelined single-site speedup (Config.Prefetch).
pipeline-bench:
	$(GO) test -run '^$$' -bench BenchmarkPrefetchPipeline -benchtime 3x .

# The adaptive speculation subsystem: self-tuning window vs the best fixed
# width, and the fleet-shared speculation cache vs independent crawls.
speculation-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkAdaptivePrefetch|BenchmarkFleetSharedCache' -benchtime 3x .

# The persistent crawl store: segment-log round trip, snapshot compaction,
# and resume (index rebuild) overhead → BENCH_store.json.
bench-store:
	sh scripts/bench.sh store

# The binary codec against the retained gob baseline (same recording as
# bench-store: codec and segment log are one persistence plane).
bench-codec:
	sh scripts/bench.sh codec

# The crawld daemon: >= 1k concurrent sessions over the HTTP API, with
# attach/step latency percentiles → BENCH_serve.json.
bench-serve:
	sh scripts/bench.sh serve
