// Package fabric shards one logical crawl across P partitions by host hash
// (the BUbiNG "workbench exchange" idea, in-process). Each partition owns the
// hosts whose hash maps to it, runs its own speculative staged loop — a
// frontier.Queue of owned URLs, a fetch.Prefetcher window over the shared
// backend — and forwards links it discovers for foreign hosts over a bounded
// exchange whose message type is gob-encodable, so a wire transport can be
// slotted in later.
//
// Determinism is the hard gate: a partitioned crawl must reproduce the
// single-partition Result byte-identically. The fabric achieves this the same
// way the Prefetcher does — partitions are a pure cache warm-up. The engine's
// sequential select/fetch/ingest loop IS the deterministic merge layer: it
// still charges every request in global order against the one Meter and
// Trace, and the fabric (itself a fetch.Fetcher) serves those demand requests
// from the partitions' shared response cache, falling through to the backend
// on a miss. Partition fetches are throttled by a virtual-time charge ledger:
// each demand request grants credit, so speculation can only run a bounded
// lead ahead of the real crawl and splits the request budget instead of
// blowing past it. Nothing a partition does can change what the engine
// returns — only how fast it returns it.
package fabric

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"sbcrawl/internal/fetch"
	"sbcrawl/internal/frontier"
	"sbcrawl/internal/urlutil"
)

// Auto is the partition-count sentinel: any negative count resolves to
// min(GOMAXPROCS, 8) via Resolve.
const Auto = -1

// Resolve maps a Partitions setting onto a concrete partition count:
// n >= 1 is used as-is, any negative value selects min(GOMAXPROCS, 8).
func Resolve(n int) int {
	if n >= 0 {
		return n
	}
	p := runtime.GOMAXPROCS(0)
	if p > 8 {
		p = 8
	}
	if p < 1 {
		p = 1
	}
	return p
}

const (
	defaultWindow   = 8
	defaultInboxCap = 256
	// defaultLead must cover the reorder drift between a partition's FIFO and
	// the engine's traversal of that partition's URLs — roughly one BFS level
	// of breadth, far more than the fetch window. Too small and the engine
	// demands pages the owner has queued but not started (slow hits/misses
	// that serialize the crawl); the cost of too large is bounded end-of-crawl
	// overshoot (see ledger) plus up to partitions·lead cached responses.
	defaultLead = 512
)

// Config sizes a Fabric.
type Config struct {
	// Partitions is the number of host-hash partitions (>= 1).
	Partitions int
	// Window is each partition's speculative fetch window (0 → 8).
	Window int
	// Lead bounds how many backend fetches each partition may run ahead of
	// the demand its own hosts have drawn (0 → min(512, Budget)). The
	// ledger accounts per partition, so speculation follows the engine's
	// traversal across hosts instead of racing every subset uniformly.
	Lead int
	// InboxCap bounds each partition's exchange inbox (0 → 256).
	InboxCap int
	// Root seeds partition frontiers with the crawl's start URL.
	Root string
	// Budget, when > 0, clamps the default Lead down to the crawl's request
	// budget so a tiny crawl cannot trigger a site-wide speculative sweep.
	Budget int
	// Warm holds gob-encoded PartitionSnapshot blobs from a checkpoint
	// (Fabric.SnapshotFrontiers); restored URLs re-seed the frontiers.
	// The blobs may come from a run with a different partition count —
	// restore re-routes every URL through the current host hash.
	Warm [][]byte
}

// Stats snapshots a fabric run. Wall-clock diagnostic only, like
// fetch.PrefetchStats: the counters depend on scheduling and are kept out of
// the determinism guarantee.
type Stats struct {
	// Partitions is the resolved partition count.
	Partitions int
	// Forwarded counts URLs sent across partitions over the exchange.
	Forwarded int
	// Stalls counts exchange sends that found the destination inbox full
	// and had to park for retry.
	Stalls int
	// MaxQueueDepth is the deepest any exchange inbox got.
	MaxQueueDepth int
	// DemandHits / DemandMisses count engine demand requests served from
	// the partition cache vs fallen through to the backend.
	DemandHits   int
	DemandMisses int
	// PartitionFetches counts backend fetches issued per partition.
	PartitionFetches []int
}

// errClosed reports a partition fetch refused because the fabric shut down.
var errClosed = errors.New("fabric: closed")

// Fabric is the partitioned speculation layer. It implements fetch.Fetcher:
// the engine's demand requests consume the partitions' warmed cache.
type Fabric struct {
	cfg     Config
	backend fetch.Fetcher
	cache   *respCache
	led     *ledger
	ex      *exchange
	parts   []*partition

	startOnce sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup

	mu     sync.Mutex
	demHit int
	demMis int

	// qmu guards quarantine, the avoid-set of degraded hosts (normalized
	// host identities) the engine's circuit breaker has quarantined.
	// Partitions skip speculating on them — pure warm-up economics, never
	// correctness: the demand path alone decides what a crawl returns.
	qmu        sync.RWMutex
	quarantine map[string]bool
}

// New builds a fabric over backend. Call Start to launch the partition
// loops and Close to wind them down.
func New(backend fetch.Fetcher, cfg Config) (*Fabric, error) {
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("fabric: bad partition count %d", cfg.Partitions)
	}
	if cfg.Window <= 0 {
		cfg.Window = defaultWindow
	}
	if cfg.Lead <= 0 {
		cfg.Lead = defaultLead
		// A budgeted crawl needs no deeper lead than its own budget: this
		// keeps speculative waste proportional to the crawl, so a 10-request
		// probe cannot trigger a P·lead-page sweep.
		if cfg.Budget > 0 && cfg.Lead > cfg.Budget {
			cfg.Lead = cfg.Budget
		}
	}
	if cfg.InboxCap <= 0 {
		cfg.InboxCap = defaultInboxCap
	}
	f := &Fabric{
		cfg:     cfg,
		backend: backend,
		cache:   newRespCache(),
		led:     newLedger(cfg.Partitions, cfg.Lead),
		ex:      newExchange(cfg.Partitions, cfg.InboxCap),
		stop:    make(chan struct{}),
	}
	scope, err := urlutil.NewScope(cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("fabric: bad crawl root: %w", err)
	}
	f.parts = make([]*partition, cfg.Partitions)
	for i := range f.parts {
		f.parts[i] = newPartition(f, i, scope)
	}
	f.seed(cfg.Root)
	for _, blob := range cfg.Warm {
		f.restore(blob)
	}
	return f, nil
}

// seed routes one URL to its owner partition's frontier.
func (f *Fabric) seed(raw string) {
	if raw == "" {
		return
	}
	p := f.parts[f.owner(raw)]
	p.mu.Lock()
	p.admitLocked(raw)
	p.mu.Unlock()
}

// owner maps a URL onto its owning partition by FNV-hashing the
// lowercased, www-stripped hostname — the same host identity the crawl
// scope uses, so every URL of one host lands on one partition.
func (f *Fabric) owner(raw string) int {
	return hostPartition(urlutil.SiteHost(raw), len(f.parts))
}

func hostPartition(host string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(host))
	return int(h.Sum32() % uint32(n))
}

// Start launches the partition loops.
func (f *Fabric) Start() {
	f.startOnce.Do(func() {
		for _, p := range f.parts {
			f.wg.Add(1)
			go func(p *partition) {
				defer f.wg.Done()
				p.run()
			}(p)
		}
	})
}

// Get implements fetch.Fetcher for the engine's demand path: every call
// grants the ledger one credit of speculative lead, then consumes the
// partition cache entry for the URL if one exists (waiting for an in-flight
// partition fetch — cached entries always have a live backend call behind
// them, so the wait is bounded) and falls through to the backend otherwise.
func (f *Fabric) Get(u string) (fetch.Response, error) {
	f.led.tick(f.owner(u))
	if resp, err, ok := f.cache.take(u); ok && err == nil &&
		!fetch.TransientResult(resp, nil) {
		f.note(true)
		return resp, nil
	}
	f.note(false)
	// Miss — or a cached speculative failure, which is never served as the
	// demand result (the fault may have been momentary; the fresh attempt
	// below retries on its own). Register the fetch in the cache first: the
	// owner partition still holds u in its frontier (a miss means it had
	// not started it); when it gets there it joins this entry instead of
	// re-fetching a page the engine already consumed — a demand miss costs
	// one fetch, not two.
	e, created := f.cache.begin(u)
	if !created {
		// A partition began fetching u between take and begin; join it.
		<-e.done
		if e.err == nil && !fetch.TransientResult(e.resp, nil) {
			return e.resp, nil
		}
		return f.backend.Get(u)
	}
	resp, err := f.backend.Get(u)
	f.cache.finish(e, resp, err)
	return resp, err
}

// Head implements fetch.Fetcher. A cached GET answers a HEAD without
// consuming it (headers-only view), matching Prefetcher.Head semantics.
func (f *Fabric) Head(u string) (fetch.Response, error) {
	f.led.tick(f.owner(u))
	if resp, err, ok := f.cache.peek(u); ok && err == nil &&
		!fetch.TransientResult(resp, nil) {
		f.note(true)
		return headOf(resp), nil
	}
	f.note(false)
	return f.backend.Head(u)
}

// headOf strips a GET response down to its HEAD view: no body, and no
// banned-MIME interruption (HEAD transfers nothing to interrupt).
func headOf(resp fetch.Response) fetch.Response {
	resp.Body = nil
	resp.Interrupted = false
	return resp
}

func (f *Fabric) note(hit bool) {
	f.mu.Lock()
	if hit {
		f.demHit++
	} else {
		f.demMis++
	}
	f.mu.Unlock()
}

// SetQuarantined replaces the degraded-host avoid set. Hosts may carry a
// port and any case (the circuit breaker's host:port keys); each is
// normalized onto the fabric's host identity. Partitions consult the set
// before every speculative fetch, so an update takes effect immediately.
func (f *Fabric) SetQuarantined(hosts []string) {
	set := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		set[normalizeQuarantineHost(h)] = true
	}
	f.qmu.Lock()
	f.quarantine = set
	f.qmu.Unlock()
}

// addQuarantined merges restored quarantine hints (checkpoint warm-up).
func (f *Fabric) addQuarantined(hosts []string) {
	if len(hosts) == 0 {
		return
	}
	f.qmu.Lock()
	if f.quarantine == nil {
		f.quarantine = make(map[string]bool, len(hosts))
	}
	for _, h := range hosts {
		f.quarantine[normalizeQuarantineHost(h)] = true
	}
	f.qmu.Unlock()
}

// skipHost reports whether speculation on a URL is pointless because its
// host is quarantined.
func (f *Fabric) skipHost(raw string) bool {
	f.qmu.RLock()
	q := f.quarantine
	f.qmu.RUnlock()
	if len(q) == 0 {
		return false
	}
	return q[urlutil.SiteHost(raw)]
}

// quarantinedHosts snapshots the avoid set for checkpoints.
func (f *Fabric) quarantinedHosts() []string {
	f.qmu.RLock()
	defer f.qmu.RUnlock()
	if len(f.quarantine) == 0 {
		return nil
	}
	out := make([]string, 0, len(f.quarantine))
	for h := range f.quarantine {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// normalizeQuarantineHost maps a breaker host key (host:port, any case)
// onto the fabric's host identity (lowercased, www-stripped hostname).
func normalizeQuarantineHost(h string) string {
	if i := strings.LastIndexByte(h, ':'); i >= 0 && !strings.Contains(h[i+1:], "]") {
		if _, err := strconv.Atoi(h[i+1:]); err == nil {
			h = h[:i]
		}
	}
	return urlutil.StripWWW(strings.ToLower(strings.Trim(h, "[]")))
}

// Close stops the partitions and waits for every speculative fetch to
// finish or abort; after it returns the backend is quiescent. Idempotent.
func (f *Fabric) Close() {
	f.closeOnce.Do(func() {
		close(f.stop)
		f.led.close()
		f.wg.Wait()
	})
}

// Stats snapshots the run counters.
func (f *Fabric) Stats() Stats {
	st := Stats{
		Partitions:       len(f.parts),
		PartitionFetches: make([]int, len(f.parts)),
	}
	st.Forwarded, st.Stalls, st.MaxQueueDepth = f.ex.stats()
	f.mu.Lock()
	st.DemandHits, st.DemandMisses = f.demHit, f.demMis
	f.mu.Unlock()
	for i, p := range f.parts {
		p.mu.Lock()
		st.PartitionFetches[i] = p.fetches
		p.mu.Unlock()
	}
	return st
}

// PartitionSnapshot is the durable state of one partition's frontier
// (internal/codec binary format, gob for pre-codec checkpoints), stored
// per-partition in a crawl checkpoint so Resume can re-seed a partitioned
// crawl mid-flight.
type PartitionSnapshot struct {
	// Partition is the index the snapshot was taken from (informational:
	// restore re-routes by host hash, so the count may change between runs).
	Partition int
	// Frontier is the partition's pending-URL queue.
	Frontier frontier.QueueState
	// Quarantined carries the degraded-host avoid set at checkpoint time,
	// so a resumed crawl's partitions skip known-dead hosts from the first
	// speculative fetch instead of rediscovering them. Warm-up only: the
	// resumed engine's own breaker re-derives the authoritative state.
	Quarantined []string
}

// SnapshotFrontiers serializes every partition's pending frontier (plus the
// breaker's quarantine set), safe to call while the fabric runs.
func (f *Fabric) SnapshotFrontiers() [][]byte {
	quarantined := f.quarantinedHosts()
	out := make([][]byte, len(f.parts))
	for i, p := range f.parts {
		p.mu.Lock()
		snap := PartitionSnapshot{
			Partition:   i,
			Frontier:    p.frontier.Snapshot(),
			Quarantined: quarantined,
		}
		p.mu.Unlock()
		out[i] = appendPartitionSnapshot(make([]byte, 0, 256), &snap)
	}
	return out
}

// restore re-seeds partition frontiers from one snapshot blob, routing every
// URL through the current host hash (the snapshot may predate a partition
// count change). Restore is pure warm-up: a stale or partial snapshot only
// costs cache misses, never correctness.
func (f *Fabric) restore(blob []byte) {
	if len(blob) == 0 {
		return
	}
	snap, err := decodePartitionSnapshot(blob)
	if err != nil {
		return
	}
	f.addQuarantined(snap.Quarantined)
	for _, u := range snap.Frontier.Items {
		f.seed(u)
	}
}
