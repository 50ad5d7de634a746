package sbcrawl

// This file is the persistence layer of the public API: it wires
// Config.StorePath / Config.Resume into the internal/store segment log.
// Two kinds of state go through one store directory, each in its own key
// namespace:
//
//   - the replay database (every GET/HEAD response, via fetch.Replay's
//     disk backend) — the durable substrate resume is built on;
//   - crawl records: the engine's periodic checkpoint — a few counters
//     saying how far the crawl durably got — and, when a crawl finishes,
//     its complete serialized result (the done-record).
//
// Resume is deterministic re-execution: a killed crawl left every response
// it ever saw in the store, so running the same Config again replays the
// prefix from disk at memory speed and continues over the network from the
// exact request the kill interrupted — byte-identical to a run that was
// never killed, for every strategy and prefetch width, wherever the kill
// landed. Nothing is restored from a checkpoint: its readers are the
// progress reports (SiteProgress, Config.Progress) and the sync that comes
// with it, which keeps the replay database at most one checkpoint interval
// behind the crawl. Config.Resume additionally short-circuits crawls whose
// done-record (keyed by a fingerprint of the result-relevant Config
// fields) is already stored, so a restarted fleet only re-executes the
// sites that had not finished.

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
	"strings"

	"sbcrawl/internal/codec"
	"sbcrawl/internal/core"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/store"
)

// ErrStoreLocked matches (via errors.Is) a store directory whose writer
// lock is held elsewhere: another process — or another open Store handle in
// this one — owns it. The error is actionable: it names the directory and
// says to close the other owner or share its handle (Config.Store) instead
// of re-opening the path.
var ErrStoreLocked = store.ErrLocked

// Store is an open persistent crawl store: the durable directory behind
// Config.StorePath, held open once and shared by any number of concurrent
// crawls. Config.StorePath opens and closes the directory per call, which
// the flock writer lock limits to one call at a time; a long-lived process
// multiplexing many crawls (the crawld daemon) opens the Store once and
// passes the handle through Config.Store so every session writes through
// it. All Store methods are safe for concurrent use.
type Store struct {
	st   *store.Store
	path string
}

// OpenStore opens (or creates) the persistent crawl store at dir. The
// directory has a single writer: a second open — from this process or
// another — fails with an error matching ErrStoreLocked until the first
// handle is closed.
func OpenStore(dir string) (*Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("sbcrawl: opening store %q: %w", dir, err)
	}
	return &Store{st: st, path: dir}, nil
}

// Close flushes and compacts the store (snapshot compaction kicks in when
// more than half the log is superseded records) and releases the writer lock.
func (s *Store) Close() error {
	if err := s.st.Close(); err != nil {
		return fmt.Errorf("sbcrawl: closing store: %w", err)
	}
	return nil
}

// Path returns the store's directory.
func (s *Store) Path() string { return s.path }

// RecordStore is the raw durable key/value view of one Store namespace:
// last-write-wins Puts into the append-only segment log, reads of the newest
// value appended to a caller's buffer (nil for a fresh copy), sorted key
// listing, and an explicit Sync making buffered writes durable. A daemon
// keeps its own bookkeeping (session records) in the same store its crawls
// write through, so one directory — and one writer lock — holds everything
// needed to restart.
type RecordStore interface {
	Put(key string, val []byte) error
	AppendValue(dst []byte, key string) ([]byte, bool)
	Keys(prefix string) []string
	Sync() error
}

// Records scopes a private key namespace inside the store. Namespaces are
// independent of each other and of the crawl state (replay databases,
// checkpoints, done-records) kept in the same directory.
func (s *Store) Records(namespace string) RecordStore {
	return store.Prefixed(s.st, "x|"+namespace+"|")
}

// CrawlProgress reports how far a (possibly interrupted) crawl got, read
// from its durable records without executing anything.
type CrawlProgress struct {
	// Requests is the charged budget at the last durable checkpoint — or
	// the final request count when the crawl completed.
	Requests int
	// Targets is the number of targets retrieved at that point.
	Targets int
	// Done reports a recorded final result (Config.Resume would
	// short-circuit this crawl).
	Done bool
}

// SiteProgress reports the durable progress of CrawlSite(site, cfg) over
// this store: zero if the crawl never checkpointed, its last checkpoint if
// it was interrupted, its final tallies with Done set if it completed. It
// reads the done-record or the last checkpoint, without touching any crawl
// state.
func (s *Store) SiteProgress(site *Site, cfg Config) CrawlProgress {
	records := store.Prefixed(s.st, simNamespace(site)+"|c|")
	fp := cfgFingerprint(cfg, site.Root())
	if raw, ok := records.AppendValue(nil, "done|"+fp); ok {
		if res, err := core.DecodeResult(raw); err == nil {
			return CrawlProgress{Requests: res.Requests, Targets: len(res.Targets), Done: true}
		}
	}
	if cp, ok := readCheckpoint(records, fp); ok {
		return CrawlProgress{Requests: cp.Requests, Targets: cp.Targets}
	}
	return CrawlProgress{}
}

// readCheckpoint reads the newest durable checkpoint for fp: the record
// under "ckpt|". Earlier builds wrote a full record every eighth checkpoint
// and byte-range deltas against it under "ckptd|" between; such a delta is
// still resolved when it refers to exactly this base (matching base Requests
// sequence) and lands on a newer checkpoint. A checkpoint is only a progress
// report, so any mismatch — a stale delta beside a record this build wrote
// over its base included — safely falls back to the full record.
func readCheckpoint(records store.Backend, fp string) (core.Checkpoint, bool) {
	raw, ok := records.AppendValue(nil, "ckpt|"+fp)
	if !ok {
		return core.Checkpoint{}, false
	}
	cp, err := core.DecodeCheckpoint(raw)
	if err != nil {
		return core.Checkpoint{}, false
	}
	draw, ok := records.AppendValue(nil, "ckptd|"+fp)
	if !ok {
		return cp, true
	}
	payload, err := codec.Header(draw, codec.KindCheckpointDelta)
	if err != nil {
		return cp, true
	}
	r := codec.NewReader(payload)
	baseReq := r.Int()
	delta := r.Rest()
	if r.Err() != nil || baseReq != cp.Requests {
		return cp, true
	}
	cur, err := codec.ApplyDelta(raw, delta)
	if err != nil {
		return cp, true
	}
	ncp, err := core.DecodeCheckpoint(cur)
	if err != nil || ncp.Requests < cp.Requests {
		return cp, true
	}
	return ncp, true
}

// storeFor resolves a Config's store: an already-open shared handle
// (Config.Store — not closed here), a fresh per-call open of
// Config.StorePath (closed by release), or no store at all (nil st).
func storeFor(cfg Config) (st *Store, release func() error, err error) {
	noop := func() error { return nil }
	if cfg.Store != nil {
		if cfg.StorePath != "" && cfg.StorePath != cfg.Store.path {
			return nil, nil, fmt.Errorf("sbcrawl: Config.Store is open at %q but Config.StorePath says %q", cfg.Store.path, cfg.StorePath)
		}
		return cfg.Store, noop, nil
	}
	if cfg.StorePath == "" {
		return nil, noop, nil
	}
	if st, err = OpenStore(cfg.StorePath); err != nil {
		return nil, nil, err
	}
	return st, st.Close, nil
}

// closeInto releases a per-call store when the crawl returns. A failed close
// (the final flush or compaction) means the run's writes may not be durable,
// so it becomes the call's error — beside the result — unless the crawl
// itself already failed.
func closeInto(release func() error, err *error) {
	if cerr := release(); *err == nil {
		*err = cerr
	}
}

// StoreStats reports what the persistent crawl store (Config.StorePath)
// contributed to one crawl.
type StoreStats struct {
	// Resumed reports that the store already held responses for this
	// crawl's site when the crawl started (a warm start).
	Resumed bool
	// Completed reports that Config.Resume found the crawl's done-record
	// and returned the stored result without re-executing.
	Completed bool
	// ReplayHits / ReplayMisses count replay-database lookups: hits were
	// served from the durable database (no backend traffic), misses went
	// to the network (or simulated site) and were recorded.
	ReplayHits   int
	ReplayMisses int
	// ReplayStored is the number of distinct GET responses the database
	// held when the crawl ended.
	ReplayStored int
	// WriteErr is the first write the store refused (nil when every write
	// landed), looked for in the replay database, then the checkpoints,
	// then the done-record. The crawl completes regardless: a response the
	// store refused is kept in memory. The store on disk is behind the
	// crawl, so a later resume re-fetches what is missing. An error has no
	// JSON form, so crawld's wire leaves it out.
	WriteErr error `json:"-"`
}

// add accumulates per-site stats into a fleet aggregate.
func (s *StoreStats) add(o *StoreStats) {
	if o == nil {
		return
	}
	s.Resumed = s.Resumed || o.Resumed
	s.Completed = s.Completed && o.Completed
	s.ReplayHits += o.ReplayHits
	s.ReplayMisses += o.ReplayMisses
	s.ReplayStored += o.ReplayStored
	if s.WriteErr == nil {
		s.WriteErr = o.WriteErr
	}
}

// fingerprint hashes the parts that select distinct durable state.
func fingerprint(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// simNamespace scopes store keys to one generated site: the same
// (code, scale, seed) triple regenerates identical content, so its
// responses are shareable across runs; any other triple is another site.
func simNamespace(site *Site) string {
	return "s" + fingerprint(site.code, fmt.Sprintf("%g", site.scale), fmt.Sprintf("%d", site.seed))
}

// liveNamespace scopes store keys for a live crawl: one namespace per
// (host, UserAgent) — a host may serve different agents differently, so
// responses only replay for the identity that fetched them. The crawling
// tenant is deliberately not part of it: crawls of one host under one agent
// share their stored responses, across crawld tenants and (the replay
// database being a live view) while both are running. A replay hit issues no
// request, so it needs no politeness grant, and what is shared is the public
// bytes the host served that agent; a crawl that must not share sets its own
// UserAgent.
func liveNamespace(cfg Config) string {
	host := cfg.Root
	if u, err := url.Parse(cfg.Root); err == nil && u.Host != "" {
		host = u.Host
	}
	return "l" + fingerprint(host, cfg.UserAgent)
}

// cfgFingerprint keys done-records: every Config field that can change a
// crawl's result participates. Prefetch and SimLatency are deliberately
// absent — results are byte-identical at every speculation width and
// latency, so a done-record serves them all.
func cfgFingerprint(cfg Config, root string) string {
	mimes := append([]string(nil), cfg.TargetMIMEs...)
	sort.Strings(mimes)
	return fingerprint(
		root,
		string(cfg.Strategy),
		fmt.Sprintf("%d", cfg.Seed),
		fmt.Sprintf("%d", cfg.MaxRequests),
		fmt.Sprintf("%v", cfg.EarlyStop),
		fmt.Sprintf("%g", cfg.Theta),
		fmt.Sprintf("%g", cfg.Alpha),
		fmt.Sprintf("%d", cfg.NGram),
		fmt.Sprintf("%d", cfg.BatchSize),
		cfg.ClassifierModel,
		strings.Join(mimes, ","),
		// Fault/retry knobs change what a crawl can observe, so a faulted
		// run must never satisfy a fault-free Resume (or vice versa).
		fmt.Sprintf("%d", cfg.Retries),
		fmt.Sprintf("%g", cfg.FaultRate),
		fmt.Sprintf("%d", cfg.FaultSeed),
		strings.Join(cfg.FaultDeadHosts, ","),
	)
}

// persistedCrawl is the per-crawl persistence context attach() wires up.
type persistedCrawl struct {
	records store.Backend // "<ns>|c|" namespace: checkpoints + done-record
	replay  *fetch.Replay
	sink    *storeSink
	doneKey string
	doneErr error // the done-record's refused write, if any
	resumed bool
}

// attach wires the store into a crawl Env: the fetcher is wrapped in a
// replay database viewing the site's namespace and the engine's checkpoint
// hook writes through the store. Nothing is listed or loaded, so attaching
// costs the same whatever the store holds. Must run before the crawl starts.
func (s *Store) attach(env *core.Env, cfg Config, ns string) *persistedCrawl {
	replay := fetch.NewReplay(env.Fetcher)
	replay.SetBackend(store.Prefixed(s.st, ns+"|r|"))
	env.Fetcher = replay
	fp := cfgFingerprint(cfg, env.Root)
	prefix := ns + "|c|"
	// The sink writes under its full key, resolved once: a Prefixed Put
	// would concatenate the namespace at every checkpoint.
	sink := &storeSink{b: s.st, key: prefix + "ckpt|" + fp}
	env.Checkpoint = sink
	return &persistedCrawl{
		records: store.Prefixed(s.st, prefix),
		replay:  replay,
		sink:    sink,
		doneKey: "done|" + fp,
		resumed: replay.Stored() > 0,
	}
}

// loadDone returns the crawl's stored final result, if it ever completed
// with this Config.
func (pc *persistedCrawl) loadDone() (*core.Result, bool) {
	raw, ok := pc.records.AppendValue(nil, pc.doneKey)
	if !ok {
		return nil, false
	}
	res, err := core.DecodeResult(raw)
	if err != nil {
		return nil, false
	}
	return res, true
}

// finish durably records the crawl's complete result, so a Resume of the
// same Config returns it without re-executing.
func (pc *persistedCrawl) finish(res *core.Result) {
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	*buf = core.AppendResult((*buf)[:0], res)
	if pc.doneErr = pc.records.Put(pc.doneKey, *buf); pc.doneErr == nil {
		pc.doneErr = pc.records.Sync()
	}
}

// stats snapshots the crawl's store activity for the public Result.
func (pc *persistedCrawl) stats(completed bool) *StoreStats {
	return &StoreStats{
		Resumed:      pc.resumed,
		Completed:    completed,
		ReplayHits:   pc.replay.Hits(),
		ReplayMisses: pc.replay.Misses(),
		ReplayStored: pc.replay.Stored(),
		WriteErr:     cmp.Or(pc.replay.DiskErr(), pc.sink.err, pc.doneErr),
	}
}

// storeSink adapts the store to the engine's checkpoint hook: each
// checkpoint is one small durable record (last write wins) and a sync, so
// the store on disk — the replay database above all — is never more than one
// checkpoint interval behind the crawl. The engine checkpoints from its
// sequential demand loop, so the encode scratch is single-writer.
type storeSink struct {
	b   store.Backend
	key string
	enc []byte
	err error // the first refused Put or Sync
}

func (s *storeSink) Checkpoint(cp core.Checkpoint) {
	s.enc = core.AppendCheckpoint(s.enc[:0], &cp)
	err := s.b.Put(s.key, s.enc)
	if err == nil {
		err = s.b.Sync()
	}
	if s.err == nil {
		s.err = err
	}
}
