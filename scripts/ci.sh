#!/bin/sh
# Tier-1 verification: build (library, cmd/, examples/), a CLI smoke, vet,
# gofmt, the grep gates, one pass of every test (allocation gates and fuzz
# seed corpora included), the same suite under the race detector, one
# iteration of every micro-benchmark, and time-boxed live fuzzing. `make ci`
# runs this script; it is the one definition of the gate. The performance
# record is `go run ./benchmark` (`make benchmark`), not part of this gate.
set -eux

go build ./...
# CLI smoke: crawlbench's flag parsing, OpenStore and its close, and the
# -stats report stay wired (the build above only compiles them).
go run ./cmd/crawlbench -exp table1 -sites cl -scale 0.0005 -maxpages 120 -runs 1 -stats -store "$(mktemp -d)" >/dev/null
go vet ./...
test -z "$(gofmt -l .)"
# Gob-free: nothing outside test files imports encoding/gob (tests keep it
# only to forge the pre-codec records decoders must refuse with
# codec.ErrLegacyFormat).
if grep -rn --include='*.go' '"encoding/gob"' . | grep -v '_test.go'; then
	echo "encoding/gob imported outside _test.go" >&2
	exit 1
fi
# Sequential engine: the crawl loop owns all crawl state from one goroutine,
# so no non-test file of internal/core starts a goroutine or imports "sync"
# (sync/atomic, the speculative-launch tally, is another import line). The
# library's goroutines come from fetch/prefetch.go, fleet.Do and the daemon.
if ls internal/core/*.go | grep -v '_test.go' | xargs grep -nE '^[[:space:]]*go |"sync"$'; then
	echo "internal/core starts a goroutine or imports sync outside _test.go" >&2
	exit 1
fi
# Checkpoints are counters: no non-test file of internal/core snapshots a
# frontier for one (nothing ever restored it; resume replays the response
# database), so a checkpoint's cost cannot grow back with the frontier's size.
if ls internal/core/*.go | grep -v '_test.go' | xargs grep -n 'FrontierSnapshot'; then
	echo "internal/core serializes a frontier outside _test.go" >&2
	exit 1
fi
# The replay database is a view: non-test internal/fetch/replay.go never lists
# its store (attach used to list the site's namespace twice, a walk over every
# key of every session a daemon had ever run).
if grep -n '\.Keys(' internal/fetch/replay.go; then
	echo "internal/fetch/replay.go lists its backend" >&2
	exit 1
fi
# Algorithm 2 pays for a link's bigrams and nothing else: the bigram
# featurizer orders IDs by walking a bitmap over its fixed block, never by a
# comparison sort, and the classifier keeps no per-link features between
# predicting a link and learning from it (it featurizes into scratch and
# recomputes from the URL or a copy of the link's context).
if grep -nE '"(slices|sort)"' internal/textvec/chargram.go; then
	echo "internal/textvec/chargram.go sorts" >&2
	exit 1
fi
if grep -rn --include='*.go' 'ClassifyFeatures' internal | grep -v '_test.go'; then
	echo "internal/ retains classifier features outside _test.go" >&2
	exit 1
fi
# A session pays for its pages, not for being a crawl: the tag-path
# vectorizer computes its collision counts from the vocabulary's size instead
# of keeping a D-wide bucket table per crawl, and a page's surviving links go
# straight onto the engine's link stack instead of into a copy.
if grep -rn --include='*.go' 'bucketCount' internal/textvec | grep -v '_test.go'; then
	echo "internal/textvec keeps a bucket table outside _test.go" >&2
	exit 1
fi
if grep -rn --include='*.go' 'make(\[\]dom.Link' internal/core | grep -v '_test.go'; then
	echo "internal/core copies a page's links outside _test.go" >&2
	exit 1
fi
# The main pass runs every test once, uncached. That includes every
# package's 'Alloc' gates, which hold:
# link path — free-listed parsers cost O(links) a page, never O(bytes), the
# same after a GC, and a full intern table starts over; the raw-text scan
# copies nothing; a link's surrounding text costs its 256 bytes whatever its
# parent's size; Normalize costs a link its one result string, the lazy page
# base nothing, and the scope/blocklist filters nothing; once warm, a page
# whose links are all in T ∪ F costs extractNewLinks nothing, and a page of k
# new links with no field asked for costs its k URL strings plus a constant,
# whatever its text and markup. Algorithm 1 — an action-index
# lookup allocates nothing once warm, a founding action only its non-zeros.
# Algorithm 2 — bigrams into spare capacity allocate nothing, a URL_ONLY link
# nothing past the HEAD phase, scoring and training nothing once the weight
# vector has grown; a finished SB crawl's weight table, batch arena and
# generators are reused by the next, and a tag-path vectorizer keeps no
# D-wide table. Algorithm 3 — once warm, an SB step's select stage, its
# select-time next-draw hint and the next-draw guess behind each batch of
# predicted targets allocate nothing. Durable path — the replay-record codec round trip and the
# checkpoint re-encode allocate nothing; the checkpoint sink nothing, whatever
# the frontier's size; store.Open and Snapshot allocate per key, not per
# stored byte, and a read into a reused buffer copies, never allocates, a
# namespaced one included (the store joins its key); a replay GET hit whose
# body is handed back costs its MIME copy alone, a HEAD answered by a stored
# GET nothing the size of the record; attaching a crawl
# to a store costs the same whatever the store holds; a Site counts its pages
# once; a crawld client decodes each response out of one reused buffer.
# It also runs every Fuzz target's checked-in seed corpus as ordinary
# tests: the tokenizer/extractor targets (termination, a Reset tokenizer's
# second pass agreeing with its first, UTF-8 preservation, pool hygiene),
# and every persistence-plane decoder (accepted blobs re-encode to
# identity, the segment scanner never panics and reports mutated logs
# through Recovery(), the session-record decoder likewise).
go test -count=1 ./...
# The race pass is the one determinism gate: every equivalence suite —
# prefetch widths, partitions, kill-and-resume, cross-version stores,
# retry convergence and the breaker, the crawld session lifecycle — runs here
# with the race detector watching the speculative layers. Nothing below
# re-runs a subset of it.
go test -race ./...
# Micro-benchmark smoke: every Benchmark* outside benchmark/ runs one
# iteration, so one that stops building or panics fails the gate.
go test -run '^$' -bench . -benchtime 1x ./...
# Real fuzzing, time-boxed: running only the checked-in seeds does not
# actually enforce the never-panic invariant (corrupt-length overflow
# panics sailed through the seed-only gate and fell to a real -fuzz run in
# seconds), so each persistence-plane target gets a short live pass.
# Mutated crashers land in testdata/fuzz/ and fail the build.
go test -run '^$' -fuzz '^FuzzCodec$' -fuzztime 30s ./internal/codec
go test -run '^$' -fuzz '^FuzzDelta$' -fuzztime 10s ./internal/codec
go test -run '^$' -fuzz '^FuzzScanSegment$' -fuzztime 10s ./internal/store
go test -run '^$' -fuzz '^FuzzSessionRecord$' -fuzztime 10s ./internal/serve
# Same treatment for the sparse action index: random token streams through
# core.ActionIndex and through the test-local dense Algorithm 1 it replaced
# must agree on every action ID, similarity and centroid, bit for bit.
go test -run '^$' -fuzz '^FuzzActionIndexSparseVsDense$' -fuzztime 10s ./internal/core
# And for the sorted-slice URL features: arbitrary bytes and block offsets
# must give exactly the map-keyed vector they replaced, in ascending ID order.
go test -run '^$' -fuzz '^FuzzCharBigramsSortedVsMap$' -fuzztime 10s ./internal/learn
# And for the link path's fast forms: Normalize, and its append form over a
# lazily parsed page base, must equal the retained net/url body for arbitrary
# references and bases, and whatever the plain
# host/path split accepts url.Parse must parse to the same host and path (a
# first cut of the split accepted "http://0/#%", a fragment with a bad escape,
# and only a live run found it).
go test -run '^$' -fuzz '^FuzzNormalizeFastVsURL$' -fuzztime 10s ./internal/urlutil
go test -run '^$' -fuzz '^FuzzSplitVsURL$' -fuzztime 10s ./internal/urlutil
# And for the frontier's RNG lookahead: a grouped frontier that peeks its
# next draw at every turn must pop, count draws and snapshot exactly like a
# twin that never peeks.
go test -run '^$' -fuzz '^FuzzGroupedPeekPop$' -fuzztime 10s ./internal/frontier
