// Package serve is the crawl-as-a-service daemon behind cmd/crawld: an
// always-on process exposing a session API (create / attach / stream
// progress / cancel / list) over local HTTP+JSON, multiplexing many
// concurrent crawl sessions onto one bounded worker pool.
//
// Three properties make it a service rather than a loop around the library:
//
//   - Multi-tenant fairness: every session belongs to a tenant and units
//     dispatch by stride scheduling over tenant weights, so one tenant's
//     500-site fleet cannot starve another tenant's single crawl.
//   - A process-wide politeness registry: every live crawl the daemon runs
//     routes per-host politeness through one sbcrawl.HostRegistry, so two
//     tenants hammering one host still observe the BUbiNG per-host spacing
//     invariant between each other — the daemon, not the tenant, owns
//     politeness.
//   - Durability: sessions and their crawls write through one persistent
//     store. Kill the daemon at any point, restart it on the same store,
//     and every interrupted session resumes by deterministic re-execution —
//     clients re-attach by POSTing the same spec and read final Results
//     byte-identical to an uninterrupted run.
package serve

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"sbcrawl"
	"sbcrawl/internal/fleet"
)

// Config configures a daemon.
type Config struct {
	// StorePath is the durable store directory backing every session. The
	// daemon owns the single writer lock for its lifetime; opening a
	// directory another process holds fails with sbcrawl.ErrStoreLocked.
	StorePath string
	// Store is an already-open handle to use instead of StorePath.
	Store *sbcrawl.Store
	// Workers bounds concurrently running crawl units (0 → one per core).
	Workers int
	// Limits is the admission control; zero values mean unlimited.
	Limits Limits
	// PolitenessFloor, when set, is the registry-wide minimum politeness
	// delay: no tenant's live crawl may contact a host faster, whatever its
	// own Politeness says.
	PolitenessFloor time.Duration
}

// Limits bounds what any one tenant can ask of the daemon; exceeding one
// fails session creation with a limit_exceeded (HTTP 429) error.
type Limits struct {
	// TenantSessions caps a tenant's active (non-terminal) sessions.
	TenantSessions int
	// TenantQueue caps a tenant's queued units across its sessions.
	TenantQueue int
	// SessionUnits caps the units of one session.
	SessionUnits int
}

// sessionRecord is the durable form of a session: everything needed to
// rebuild and resume it after a daemon restart.
type sessionRecord struct {
	Spec      SessionSpec
	Cancelled bool
	Created   time.Time
}

// session is one live session: its spec, cancellation scope, and the
// mutable progress clients observe.
type session struct {
	id     string
	spec   SessionSpec
	labels []string
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string
	unitsDone int
	progress  []sbcrawl.CrawlProgress
	results   []*UnitResult
	seq       uint64
	change    chan struct{} // closed and replaced on every bump
}

// bump records an observable change: the sequence advances and every
// long-poller waiting on the old change channel wakes. Caller holds s.mu.
func (s *session) bump() {
	s.seq++
	close(s.change)
	s.change = make(chan struct{})
}

// done reports a terminal state, as status(false).Done() would, without
// building the snapshot.
func (s *session) done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state != StateRunning
}

func (s *session) isCancelled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == StateCancelled
}

// setProgress records a running unit's checkpoint.
func (s *session) setProgress(i int, p sbcrawl.CrawlProgress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.progress[i] = p
	s.bump()
}

// finishUnit records a finished unit and, when it is the last, the
// session's terminal state. interrupted units (daemon shutdown or session
// cancel mid-crawl) are not final — their partial results are discarded
// here because the store will re-execute them byte-identically later.
func (s *session) finishUnit(i int, res *sbcrawl.Result, err error, interrupted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if interrupted {
		s.bump()
		return
	}
	ur := &UnitResult{Label: s.labels[i], Result: res}
	if err != nil {
		ur.Err = err.Error()
	}
	if res != nil {
		s.progress[i] = sbcrawl.CrawlProgress{Requests: res.Requests, Targets: len(res.Targets), Done: true}
	}
	s.results[i] = ur
	s.unitsDone++
	if s.unitsDone == len(s.labels) && s.state == StateRunning {
		s.state = StateDone
	}
	s.bump()
}

// status snapshots the session. Results are included only when asked (unit
// results can be large; listings skip them).
func (s *session) status(withResults bool) SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStatus{
		ID:        s.id,
		Tenant:    s.spec.Tenant,
		Name:      s.spec.Name,
		Weight:    clampWeight(s.spec.Weight),
		State:     s.state,
		Units:     len(s.labels),
		UnitsDone: s.unitsDone,
		Seq:       s.seq,
	}
	for _, p := range s.progress {
		st.Requests += p.Requests
		st.Targets += p.Targets
	}
	// Fault activity is known only for finished units (running crawls
	// report it with their final Result).
	for _, ur := range s.results {
		if ur == nil || ur.Result == nil || ur.Result.Faults == nil {
			continue
		}
		if st.Faults == nil {
			st.Faults = &sbcrawl.FaultStats{}
		}
		st.Faults.Add(*ur.Result.Faults)
	}
	if withResults {
		st.Results = make([]UnitResult, len(s.results))
		for i, ur := range s.results {
			if ur != nil {
				st.Results[i] = *ur
			} else {
				st.Results[i] = UnitResult{Label: s.labels[i]}
			}
		}
	}
	return st
}

// wait blocks until the session's seq exceeds after, the timeout elapses,
// or ctx is done, then returns the current status.
func (s *session) wait(ctx context.Context, after uint64, timeout time.Duration) SessionStatus {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		seq := s.seq
		ch := s.change
		s.mu.Unlock()
		if seq > after {
			return s.status(true)
		}
		select {
		case <-ch:
		case <-deadline.C:
			return s.status(true)
		case <-ctx.Done():
			return s.status(true)
		}
	}
}

// Server is the daemon: session registry, scheduler, worker pool, host
// registry, and the durable store they all share.
type Server struct {
	cfg      Config
	store    *sbcrawl.Store
	ownStore bool
	records  sbcrawl.RecordStore
	hosts    *sbcrawl.HostRegistry
	sched    *scheduler
	workers  int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*session

	siteMu sync.Mutex
	sites  map[SiteSpec]*sbcrawl.Site
}

// New opens the store (surfacing sbcrawl.ErrStoreLocked when another
// process owns it), reloads every durable session — re-enqueuing unfinished
// ones — and starts the worker pool.
func New(cfg Config) (*Server, error) {
	st := cfg.Store
	own := false
	if st == nil {
		if cfg.StorePath == "" {
			return nil, errors.New("serve: Config.StorePath or Config.Store is required — sessions are durable, the daemon needs its store")
		}
		var err error
		if st, err = sbcrawl.OpenStore(cfg.StorePath); err != nil {
			return nil, err
		}
		own = true
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:      cfg,
		store:    st,
		ownStore: own,
		records:  st.Records("crawld"),
		hosts:    sbcrawl.NewHostRegistry(),
		sched:    newScheduler(),
		workers:  workers,
		sessions: make(map[string]*session),
		sites:    make(map[SiteSpec]*sbcrawl.Site),
	}
	if cfg.PolitenessFloor > 0 {
		s.hosts.SetFloor(cfg.PolitenessFloor)
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.reload()
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close stops the daemon: in-flight crawls are cancelled at their next
// request (their responses are already durable, so nothing is lost), the
// workers drain, and the store — if the daemon opened it — is closed,
// releasing the writer lock for the next incarnation.
func (s *Server) Close() error {
	s.cancel()
	s.sched.close()
	s.wg.Wait()
	if s.ownStore {
		return s.store.Close()
	}
	return nil
}

// Hosts snapshots the politeness registry.
func (s *Server) Hosts() []HostStatus { return s.hosts.Usage() }

// Stats snapshots the daemon.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	tenants := make(map[string]bool)
	st := Stats{Sessions: len(s.sessions), Workers: s.workers, StorePath: s.store.Path()}
	for _, sess := range s.sessions {
		tenants[sess.spec.Tenant] = true
		if !sess.done() {
			st.Active++
		}
	}
	s.mu.Unlock()
	st.Tenants = len(tenants)
	st.QueuedUnits = s.sched.queuedTotal()
	st.Hosts = s.hosts.HostCount()
	return st
}

// Create creates the session — or attaches to it: the same (tenant, name)
// with the same spec returns the existing session's status, whatever state
// it is in, which is how clients re-attach after a disconnect or a daemon
// restart. A different spec under an existing name is a conflict.
func (s *Server) Create(spec SessionSpec) (SessionStatus, error) {
	if spec.Tenant == "" || spec.Name == "" {
		return SessionStatus{}, errInvalid("session needs a tenant and a name")
	}
	if spec.units() == 0 {
		return SessionStatus{}, errInvalid("session needs at least one site or root")
	}
	if lim := s.cfg.Limits.SessionUnits; lim > 0 && spec.units() > lim {
		return SessionStatus{}, errLimit("session asks for %d units, limit is %d", spec.units(), lim)
	}
	id := SessionID(spec.Tenant, spec.Name)

	s.mu.Lock()
	if existing := s.sessions[id]; existing != nil {
		s.mu.Unlock()
		if !reflect.DeepEqual(existing.spec, spec) {
			return SessionStatus{}, errConflict("session %s/%s exists with a different spec", spec.Tenant, spec.Name)
		}
		return existing.status(true), nil
	}
	if lim := s.cfg.Limits.TenantSessions; lim > 0 {
		active := 0
		for _, sess := range s.sessions {
			if sess.spec.Tenant == spec.Tenant && !sess.done() {
				active++
			}
		}
		if active >= lim {
			s.mu.Unlock()
			return SessionStatus{}, errLimit("tenant %q already has %d active sessions, limit is %d", spec.Tenant, active, lim)
		}
	}
	if lim := s.cfg.Limits.TenantQueue; lim > 0 {
		if q := s.sched.queued(spec.Tenant); q+spec.units() > lim {
			s.mu.Unlock()
			return SessionStatus{}, errLimit("tenant %q has %d units queued; %d more would exceed the limit of %d", spec.Tenant, q, spec.units(), lim)
		}
	}
	sess := s.newSession(id, spec, StateRunning)
	s.sessions[id] = sess
	s.mu.Unlock()

	s.putRecord(sessionRecord{Spec: spec, Created: time.Now()})
	s.enqueue(sess)
	return sess.status(true), nil
}

// Wait long-polls a session: it returns as soon as the session's change
// sequence exceeds after (0 returns immediately), or after timeout.
func (s *Server) Wait(ctx context.Context, id string, after uint64, timeout time.Duration) (SessionStatus, error) {
	sess := s.lookup(id)
	if sess == nil {
		return SessionStatus{}, errNotFound(id)
	}
	if timeout <= 0 {
		return sess.status(true), nil
	}
	return sess.wait(ctx, after, timeout), nil
}

// Cancel cancels a session: queued units are discarded, the running ones
// stop at their next request, and the cancellation is durable — a
// restarted daemon will not resurrect the session's work.
func (s *Server) Cancel(id string) (SessionStatus, error) {
	sess := s.lookup(id)
	if sess == nil {
		return SessionStatus{}, errNotFound(id)
	}
	sess.mu.Lock()
	if sess.state == StateRunning {
		sess.state = StateCancelled
		sess.bump()
	}
	sess.mu.Unlock()
	sess.cancel()
	s.putRecord(sessionRecord{Spec: sess.spec, Cancelled: true})
	return sess.status(true), nil
}

// List returns every session's status (no results), newest-name-last by
// (tenant, name); tenant filters when non-empty.
func (s *Server) List(tenant string) []SessionStatus {
	s.mu.Lock()
	out := make([]SessionStatus, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if tenant != "" && sess.spec.Tenant != tenant {
			continue
		}
		out = append(out, sess.status(false))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (s *Server) lookup(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// newSession builds the in-memory session (caller registers it).
func (s *Server) newSession(id string, spec SessionSpec, state string) *session {
	sess := &session{
		id:     id,
		spec:   spec,
		state:  state,
		change: make(chan struct{}),
	}
	sess.ctx, sess.cancel = context.WithCancel(s.ctx)
	for _, site := range spec.Sites {
		sess.labels = append(sess.labels, site.Code)
	}
	sess.labels = append(sess.labels, spec.Roots...)
	sess.progress = make([]sbcrawl.CrawlProgress, len(sess.labels))
	sess.results = make([]*UnitResult, len(sess.labels))
	return sess
}

// putRecord persists a session record under its stable key.
func (s *Server) putRecord(rec sessionRecord) {
	id := SessionID(rec.Spec.Tenant, rec.Spec.Name)
	if err := s.records.Put("sess|"+id, encodeSessionRecord(&rec)); err != nil {
		return
	}
	s.records.Sync()
}

// enqueue hands the session's units to the scheduler in unit order.
func (s *Server) enqueue(sess *session) {
	units := make([]*unit, len(sess.labels))
	for i := range units {
		units[i] = &unit{sess: sess, index: i}
	}
	s.sched.enqueue(sess.spec.Tenant, sess.spec.Weight, units)
}

// unitConfig builds the exact Config unit i of the session crawls with —
// identical across daemon restarts, which is what makes resumed sessions
// byte-identical: the config's fingerprint selects the same durable state
// every time.
func (s *Server) unitConfig(sess *session, i int) sbcrawl.Config {
	cfg := sess.spec.Crawl.config()
	cfg.Store = s.store
	cfg.Resume = true
	if i < len(sess.spec.Sites) {
		// Same per-site seed derivation as sbcrawl.CrawlSites, so a session
		// over N sites reproduces the library fleet byte for byte.
		cfg.Seed = fleet.DeriveSeed(sess.spec.Crawl.Seed, i)
	} else {
		cfg.Root = sess.spec.Roots[i-len(sess.spec.Sites)]
		cfg.Hosts = s.hosts
	}
	return cfg
}

// site returns the generated site for a spec, building it once: sessions
// naming the same (code, scale, seed) share the immutable Site.
func (s *Server) site(spec SiteSpec) (*sbcrawl.Site, error) {
	s.siteMu.Lock()
	defer s.siteMu.Unlock()
	if site := s.sites[spec]; site != nil {
		return site, nil
	}
	site, err := sbcrawl.GenerateSite(spec.Code, spec.Scale, spec.Seed)
	if err != nil {
		return nil, err
	}
	s.sites[spec] = site
	return site, nil
}

// worker is one slot of the crawl pool.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		u, ok := s.sched.next()
		if !ok {
			return
		}
		s.runUnit(u)
	}
}

// runUnit executes one crawl unit inside its session's cancellation scope.
func (s *Server) runUnit(u *unit) {
	sess := u.sess
	cfg := s.unitConfig(sess, u.index)
	cfg.Progress = func(p sbcrawl.CrawlProgress) { sess.setProgress(u.index, p) }
	var (
		res *sbcrawl.Result
		err error
	)
	if u.index < len(sess.spec.Sites) {
		var site *sbcrawl.Site
		if site, err = s.site(sess.spec.Sites[u.index]); err == nil {
			res, err = sbcrawl.CrawlSiteCtx(sess.ctx, site, cfg)
		}
	} else {
		res, err = sbcrawl.CrawlCtx(sess.ctx, cfg)
	}
	// A unit cut off by cancellation produced a partial result that the
	// store will re-execute past on resume; only completed units are final.
	interrupted := sess.ctx.Err() != nil && err == nil
	sess.finishUnit(u.index, res, err, interrupted)
}

// reload rebuilds every durable session at startup. Non-cancelled sessions
// re-enqueue all their units in unit order: finished units short-circuit
// from their done-records (re-materializing their results at memory speed),
// interrupted ones resume by re-execution over the replay database,
// untouched ones crawl fresh — and the session reaches the exact state an
// uninterrupted daemon would have produced. Cancelled sessions are rebuilt
// as terminal records so clients still see them.
func (s *Server) reload() {
	for _, key := range s.records.Keys("sess|") {
		raw, ok := s.records.AppendValue(nil, key)
		if !ok {
			continue
		}
		rec, err := decodeSessionRecord(raw)
		if err != nil {
			continue // skip a corrupt record rather than refuse to start
		}
		id := SessionID(rec.Spec.Tenant, rec.Spec.Name)
		state := StateRunning
		if rec.Cancelled {
			state = StateCancelled
		}
		sess := s.newSession(id, rec.Spec, state)
		s.mu.Lock()
		s.sessions[id] = sess
		s.mu.Unlock()
		if rec.Cancelled {
			continue
		}
		s.enqueue(sess)
	}
}
