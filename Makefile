# Developer and CI entry points. `make ci` is the tier-1 verification gate,
# defined once in scripts/ci.sh: build, vet, gofmt, the full test suite (the
# architecture and dead-code rules, allocation gates and fuzz seed corpora
# included), the same suite under the race detector (the fleet orchestrator
# runs crawls concurrently — race-clean is a hard requirement, see
# ROADMAP.md), one pass over the micro-benchmarks and time-boxed fuzzing.

GO ?= go

.PHONY: ci build vet test race benchmark

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
# benchmark/README.md.
benchmark:
	$(GO) run ./benchmark

