#!/bin/sh
# Tier-1 verification: build (library, cmd/, examples/), a CLI smoke, vet,
# gofmt, one pass of every test (architecture rules, allocation gates and fuzz
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
# The main pass runs every test once, uncached. That includes the root
# package's TestArchitectureRules (no gob outside tests; internal/core starts
# no goroutine, imports no sync, snapshots no frontier and copies no page's
# links; the replay database lists nothing; the bigram featurizer sorts
# nothing; no per-link classifier features; no per-crawl bucket table) and
# its dead-code rule TestEveryDeclarationHasACaller, which type-checks the
# module with go/types (one `go list -export` supplies the standard
# library's export data) and resolves every use to its object: every
# internal/ declaration, method and interface method, and every unexported
# one anywhere, has a non-test use outside benchmark/ (a method also through
# a used interface method its type implements, not through a forwarder),
# and every unexported field of a top-level struct type outside benchmark/ a
# non-test read that is not a composite literal's key or the whole left side
# of an = or :=, or an allowlist entry with a reason; and
# every package's 'Alloc' gates, which hold:
# link path — one-pass extraction on free-listed parsers costs O(links) a
# page, never O(bytes), the same after a GC, and a full intern table starts
# over; the raw-text scan copies nothing; a link's surrounding text costs its 256 bytes whatever its
# parent's size; Normalize costs a link its one result string, the lazy page
# base nothing, and the scope/blocklist filters nothing; once warm, a page
# whose links are all in T ∪ F costs extractNewLinks nothing, and a page of k
# new links with no field asked for costs its k URL strings plus a constant,
# whatever its text and markup. An href reaches the engine's filter as a view
# of the page, so a link it drops costs nothing even when no parser has seen
# its href (a page of unseen known links, a dom admit refusing fresh hrefs),
# and the bytes form of the lazy page base costs what its string form does:
# nothing. Algorithm 1 — an action-index
# lookup allocates nothing once warm, a founding action only its non-zeros.
# Algorithm 2 — bigrams into spare capacity allocate nothing, a URL_ONLY link
# nothing past the HEAD phase, scoring and training nothing once the weight
# vector has grown; a finished SB crawl's (and FOCUSED's) weight table, batch arena, feature
# scratch, example slots, pending predictions, generators, tag-path
# vocabulary, action-index node slab and frontier action lists, and every
# finished crawl's T ∪ F, in-page set and link stack, are reused by the next,
# each parked empty and only under its size bound, and a founding action on
# a parked node allocates nothing; a tag-path vectorizer keeps no D-wide
# table. Algorithm 3 — once warm, an SB step's select stage, its
# select-time next-draw hint and the next-draw guess behind each batch of
# predicted targets allocate nothing, nor does a push into an emptied action,
# and a speculative fetch launched, landed and consumed runs on a parked
# worker and reuses a spent entry, under one allocation a URL. Durable path — the replay-record codec round trip and the
# checkpoint re-encode allocate nothing; the checkpoint sink nothing, whatever
# the frontier's size; store.Open and Snapshot allocate per key, not per
# stored byte, and a read into a reused buffer copies, never allocates, a
# namespaced one included (the store joins its key); a replay GET hit whose
# body is handed back costs its MIME copy alone, a HEAD answered by a stored
# GET nothing the size of the record; attaching a crawl
# to a store costs the same whatever the store holds; a Site counts its pages
# once; a crawld client decodes each response out of one reused buffer.
# Simulated web — a warm render seeds a parked generator, never a new
# math/rand source, and costs one allocation, its body: a target's at its
# size, an HTML page's exact-size copy of the scratch it was appended into
# (no word string, no boxed argument); a HEAD builds no body (a federation's
# canonical URL is joined on the stack, so its HEAD allocates nothing). A
# server lends its GET bodies: a warm GET whose body is handed back through
# Recycle allocates nothing — an HTML page, a target, a federated page
# rewritten straight from the scratch — and one whose body never comes back
# allocates one object, no byte over an exact-size body. A simulated round
# trip with a context waits on a parked timer and allocates nothing.
# It also runs every Fuzz target's checked-in seed corpus as ordinary
# tests: the tokenizer/extractor targets, every persistence-plane decoder,
# FuzzPrefetcher's named rows (each also runs under the name of the
# hand-written Prefetcher test it replaced), and FuzzCrawlConfig's share of
# the crawl-invariant table (the six Test*Equivalence/TestRetryConvergence
# families run the rest through the same harness): accelerated crawls
# (prefetch, fixed and adaptive, latency, faults with retries, kill/cancel
# and resume, a killed crawl's segment cut inside a record at each byte
# class — length header, CRC, key, value — as a crash mid-append cuts it,
# warm stores, lending, fleets sharing speculation)
# each equal to the plain sequential crawl. The store's FuzzCrashStates corpus
# opens every state a process crash can leave an op sequence in, and
# TestServeResumeEquivalence restarts crawld mid-session against
# sbcrawl.CrawlSites. TestSteadyState checks the parking layer as a whole:
# one mix of crawls (SB, TP-OFF, FOCUSED, BFS past the engine's parking
# bound, a fleet, a durable crawl cancelled, resumed and short-circuited,
# live crawls through CrawlMany, a crawld session) run four times in one
# process returns the first cycle's outcome each time, changes no Result
# returned before, ends no crawl with more goroutines than it began with
# (a live crawl's keep-alive connections close with it), and holds the
# live heap within 512 KB of the second cycle's. internal/experiments' TestPaperClaims holds the paper's
# claims, one row each, over seeds 1-5 at scale 0.004, and its expected-failure
# rows to still failing.
go test -count=1 ./...
# The race pass is the one determinism gate: the crawl-invariant table,
# the cross-version stores, the breaker and the crawld session lifecycle run
# again with the race detector watching the speculative layers. Nothing below
# re-runs a subset of it. TestPaperClaims skips here: each of its crawls is
# single-goroutine, the site fan-out around them is raced here through
# TestParallelWorkersPreserveReports, and at ~8x their time (table5 at seed 1:
# 1.8 s, 14.5 s under -race) the claim crawls would add ~3 min.
go test -race ./...
# Micro-benchmark smoke: every Benchmark* outside benchmark/ runs one
# iteration, so one that stops building or panics fails the gate.
go test -run '^$' -bench . -benchtime 1x ./...
# Real fuzzing, time-boxed: running only the checked-in seeds does not
# enforce a never-panic or an equivalence invariant (corrupt-length overflows
# sailed through the seed-only gate and fell to a real -fuzz run in seconds),
# so each target gets a short live pass; a crasher lands in testdata/fuzz/
# and fails the build. Targets: the persistence-plane decoders; the store's
# crash states (any op sequence, every cut of every step); the sparse
# action index against the dense Algorithm 1; the sorted-slice URL features
# against the map-keyed ones; Normalize's fast forms and the host/path split
# against net/url; the one-pass link extractor against the reference DOM tree
# for every field set; a peeking frontier against one that never peeks; the
# renderer's lazily seeded source against math/rand's; the speculation layer
# against its backend, under a fuzzer-chosen landing order; and any Config
# against the plain sequential crawl.
while read -r pkg target secs; do
	go test -run '^$' -fuzz "^$target\$" -fuzztime "${secs}s" "$pkg" </dev/null
done <<'EOF'
./internal/codec FuzzCodec 30
./internal/codec FuzzDelta 10
./internal/store FuzzScanSegment 10
./internal/store FuzzCrashStates 10
./internal/serve FuzzSessionRecord 10
./internal/core FuzzActionIndexSparseVsDense 10
./internal/learn FuzzCharBigramsSortedVsMap 10
./internal/urlutil FuzzNormalizeFastVsURL 10
./internal/urlutil FuzzSplitVsURL 10
./internal/dom FuzzExtractLinks 10
./internal/frontier FuzzGroupedPeekPop 10
./internal/sitegen FuzzRenderSource 10
./internal/fetch FuzzPrefetcher 10
. FuzzCrawlConfig 10
EOF
