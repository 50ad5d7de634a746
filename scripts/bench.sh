#!/bin/sh
# Perf trajectory: run a benchmark suite once and record the raw
# `go test -json` stream in a BENCH_*.json file at the repo root. Every PR
# that touches a hot path should regenerate the file it affects so
# regressions are visible in review. One file per subsystem, same shape:
#
#   BENCH_engine.json     (default mode)    engine/parse/vectorize hot paths
#   BENCH_store.json      (store mode)      segment-log replay database
#   BENCH_serve.json      (serve mode)      crawld session multiplexing
#   BENCH_resilience.json (resilience mode) retry layer under injected faults
#
# `scripts/bench.sh extract <any BENCH_*.json>` recovers the plain benchmark
# lines from the JSON stream in a benchstat-ready shape, and
# `scripts/bench.sh compare <old.json> <new.json>` diffs two streams in one
# command (benchstat when installed, plain diff otherwise):
#
#   scripts/bench.sh extract old/BENCH_store.json > old.txt
#   scripts/bench.sh extract BENCH_store.json     > new.txt
#   benchstat old.txt new.txt
#   # or, in one step:
#   scripts/bench.sh compare old/BENCH_store.json BENCH_store.json
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "extract" ]; then
	# Pull the benchmark Output events out of a `go test -json` stream and
	# unescape them back into `go test -bench` text (benchstat's format).
	# A result line is streamed as two events — the bench name, then the
	# measurements — so the payloads are concatenated before splitting on
	# the embedded newlines.
	IN=${2:-BENCH_engine.json}
	grep '"Action":"output"' "$IN" \
		| sed 's/.*"Output":"//; s/"}$//' \
		| tr -d '\n' \
		| sed 's/\\n/\n/g' \
		| sed 's/\\t/\t/g; s/\\"/"/g; s/\\\\/\\/g' \
		| grep '^Benchmark.*ns/op'
	exit 0
fi

if [ "${1:-}" = "compare" ]; then
	# Diff two recorded streams: extract both sides, then benchstat when
	# available (falls back to a plain diff, which still surfaces ns/op and
	# req/s movement line by line).
	OLD=${2:?usage: bench.sh compare <old.json> <new.json>}
	NEW=${3:?usage: bench.sh compare <old.json> <new.json>}
	TMP=$(mktemp -d)
	trap 'rm -rf "$TMP"' EXIT
	"$0" extract "$OLD" > "$TMP/old.txt"
	"$0" extract "$NEW" > "$TMP/new.txt"
	if command -v benchstat >/dev/null 2>&1; then
		benchstat "$TMP/old.txt" "$TMP/new.txt"
	else
		echo "benchstat not installed; falling back to diff" >&2
		diff "$TMP/old.txt" "$TMP/new.txt" || true
	fi
	exit 0
fi

if [ "${1:-}" = "resilience" ]; then
	# Robustness trajectory: BenchmarkResilience crawls one medium site with
	# the retry/backoff layer armed at injected transient-fault rates
	# 0/1%/5%/20%, recording req/s plus the retry traffic split (retries,
	# recovered, exhausted, failed requests) in BENCH_resilience.json. The
	# crawl result is byte-identical at every rate (TestRetryConvergence);
	# this file records what that recovery costs.
	OUT=${2:-BENCH_resilience.json}
	go test -run '^$' -bench BenchmarkResilience -benchtime 3x -json . > "$OUT"
	echo "wrote $OUT ($(grep -c '"Action"' "$OUT") events)" >&2
	exit 0
fi

if [ "${1:-}" = "serve" ]; then
	# Daemon trajectory: BenchmarkServeSessions drives >= 1k concurrent
	# sessions through the crawld HTTP API on one daemon, recording
	# sessions/s plus attach/step latency percentiles (p50/p95/p99) in
	# BENCH_serve.json.
	OUT=${2:-BENCH_serve.json}
	go test -run '^$' -bench BenchmarkServeSessions -benchtime 1x -json ./internal/serve > "$OUT"
	echo "wrote $OUT ($(grep -c '"Action"' "$OUT") events)" >&2
	exit 0
fi

if [ "${1:-}" = "store" ] || [ "${1:-}" = "codec" ]; then
	# Storage-layer trajectory: the internal/store segment-log benchmarks
	# (replay-database round trip, group-commit batches, snapshot
	# compaction, resume overhead) plus the internal/codec rows (the
	# hand-written binary codec against the retained gob baseline),
	# recorded together in BENCH_store.json — the codec and the log are one
	# persistence plane. `codec` is an alias for the same recording.
	OUT=${2:-BENCH_store.json}
	go test -run '^$' -bench . -benchtime 1000x -json ./internal/store ./internal/codec > "$OUT"
	echo "wrote $OUT ($(grep -c '"Action"' "$OUT") events)" >&2
	exit 0
fi

OUT=${1:-BENCH_engine.json}
go test -run '^$' -bench . -benchtime 1x -json ./... > "$OUT"
echo "wrote $OUT ($(grep -c '"Action"' "$OUT") events)" >&2
