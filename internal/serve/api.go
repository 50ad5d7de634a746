package serve

// Wire types of the crawld session API: what clients POST to create a
// session, what every endpoint returns, and the typed error envelope. The
// API is local HTTP+JSON — crawld binds a loopback address and these types
// are the whole protocol, so the Client in this package and any curl
// invocation see the same shapes.

import (
	"fmt"
	"hash/fnv"
	"time"

	"sbcrawl"
)

// SessionSpec is a client's request for one crawl session: a tenant, a
// session name unique within the tenant, a fair-share weight, and the work
// — one crawl unit per simulated site plus one per live root, all sharing
// the session's CrawlSpec. The (tenant, name) pair identifies the session:
// POSTing the same spec again attaches to the existing session instead of
// creating a duplicate, which is how a client re-attaches after losing its
// connection or after the daemon restarted.
type SessionSpec struct {
	// Tenant is the fair-share principal the session is charged to.
	Tenant string `json:"tenant"`
	// Name identifies the session within its tenant.
	Name string `json:"name"`
	// Weight is the tenant's fair-share weight (default 1, clamped to
	// [1, 64]): across busy tenants, each receives worker dispatches in
	// proportion to its weight, so a 500-unit session from one tenant
	// cannot starve another tenant's single crawl.
	Weight int `json:"weight,omitempty"`
	// Crawl configures every unit of the session.
	Crawl CrawlSpec `json:"crawl"`
	// Sites lists simulated crawl units. Each site receives a seed derived
	// from (Crawl.Seed, unit index) exactly like sbcrawl.CrawlSites, so a
	// session over N sites reproduces CrawlSites byte for byte.
	Sites []SiteSpec `json:"sites,omitempty"`
	// Roots lists live crawl units (one root URL each). Live units route
	// politeness through the daemon's process-wide host registry.
	Roots []string `json:"roots,omitempty"`
}

// units is the session's unit count: sites first, then roots.
func (s SessionSpec) units() int { return len(s.Sites) + len(s.Roots) }

// SiteSpec names one simulated site: the same (code, scale, seed) triple
// always regenerates identical content, so the daemon caches generated
// sites and the crawl store shares responses across sessions.
type SiteSpec struct {
	Code  string  `json:"code"`
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
}

// CrawlSpec is the JSON form of the result-relevant sbcrawl.Config fields.
// Store wiring, resume, progress, and the host registry are daemon-owned
// and deliberately absent: every session crawls through the daemon's store
// with Resume on, which is what makes sessions durable across restarts.
type CrawlSpec struct {
	Strategy        string        `json:"strategy,omitempty"`
	MaxRequests     int           `json:"max_requests,omitempty"`
	Seed            int64         `json:"seed,omitempty"`
	EarlyStop       bool          `json:"early_stop,omitempty"`
	SimLatency      time.Duration `json:"sim_latency,omitempty"`
	Prefetch        int           `json:"prefetch,omitempty"`
	Partitions      int           `json:"partitions,omitempty"`
	Politeness      time.Duration `json:"politeness,omitempty"`
	TargetMIMEs     []string      `json:"target_mimes,omitempty"`
	Theta           float64       `json:"theta,omitempty"`
	Alpha           float64       `json:"alpha,omitempty"`
	NGram           int           `json:"ngram,omitempty"`
	BatchSize       int           `json:"batch_size,omitempty"`
	ClassifierModel string        `json:"classifier_model,omitempty"`
	UserAgent       string        `json:"user_agent,omitempty"`
	CheckpointEvery int           `json:"checkpoint_every,omitempty"`
	// Retries is the transient-failure retry budget (sbcrawl.Config.Retries:
	// 0 → default budget, -1 → retries and breaker off).
	Retries int `json:"retries,omitempty"`
	// FaultRate / FaultSeed / FaultDeadHosts inject seeded deterministic
	// faults into simulated units (ignored by live roots) — the service form
	// of the fault-injection harness, for chaos-testing a session.
	FaultRate      float64  `json:"fault_rate,omitempty"`
	FaultSeed      int64    `json:"fault_seed,omitempty"`
	FaultDeadHosts []string `json:"fault_dead_hosts,omitempty"`
}

// config maps the spec onto a Config. The daemon fills in the store, the
// registry, resume, and per-unit seeds afterwards.
func (c CrawlSpec) config() sbcrawl.Config {
	return sbcrawl.Config{
		Strategy:        sbcrawl.Strategy(c.Strategy),
		MaxRequests:     c.MaxRequests,
		Seed:            c.Seed,
		EarlyStop:       c.EarlyStop,
		SimLatency:      c.SimLatency,
		Prefetch:        c.Prefetch,
		Partitions:      c.Partitions,
		Politeness:      c.Politeness,
		TargetMIMEs:     c.TargetMIMEs,
		Theta:           c.Theta,
		Alpha:           c.Alpha,
		NGram:           c.NGram,
		BatchSize:       c.BatchSize,
		ClassifierModel: c.ClassifierModel,
		UserAgent:       c.UserAgent,
		CheckpointEvery: c.CheckpointEvery,
		Retries:         c.Retries,
		FaultRate:       c.FaultRate,
		FaultSeed:       c.FaultSeed,
		FaultDeadHosts:  c.FaultDeadHosts,
	}
}

// Session states.
const (
	StateRunning   = "running" // queued or crawling; attach and stream progress
	StateDone      = "done"    // every unit finished; Results are final
	StateCancelled = "cancelled"
)

// SessionStatus is a session snapshot: identity, state, running progress
// totals, and — once units finish — their results. Seq increments on every
// observable change, so clients long-poll with their last seen Seq and wake
// only when something happened.
type SessionStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Weight int    `json:"weight"`
	State  string `json:"state"`
	// Units and UnitsDone count the session's crawls and how many finished.
	Units     int `json:"units"`
	UnitsDone int `json:"units_done"`
	// Requests and Targets total the units' progress: checkpointed tallies
	// for crawls in flight, final tallies for finished ones.
	Requests int `json:"requests"`
	Targets  int `json:"targets"`
	// Faults sums the fault-handling activity (retries, breaker trips,
	// failed requests, quarantined hosts) of the session's finished units.
	// Nil while no finished unit has recorded a fault.
	Faults *sbcrawl.FaultStats `json:"faults,omitempty"`
	// Seq is the change sequence for long-polling (GET ?seq=N&wait=5s).
	Seq uint64 `json:"seq"`
	// Results holds finished units in unit order; nil entries are still
	// running. Populated on single-session GETs, omitted from listings.
	Results []UnitResult `json:"results,omitempty"`
}

// Done reports a terminal state.
func (s SessionStatus) Done() bool { return s.State != StateRunning }

// UnitResult is one finished crawl unit.
type UnitResult struct {
	// Label identifies the unit: the site code for simulated units, the
	// root URL for live ones.
	Label string `json:"label"`
	// Result is the finished crawl; nil when the unit failed.
	Result *sbcrawl.Result `json:"result,omitempty"`
	// Err reports a failed unit.
	Err string `json:"err,omitempty"`
}

// HostStatus is one host's politeness accounting from the daemon registry,
// served as {"host", "grants", "waited", "last_grant"}.
type HostStatus = sbcrawl.HostUsage

// Stats is the daemon-wide snapshot.
type Stats struct {
	// Sessions counts every known session; Active the non-terminal ones.
	Sessions int `json:"sessions"`
	Active   int `json:"active"`
	// Tenants counts distinct tenants over known sessions.
	Tenants int `json:"tenants"`
	// Workers is the crawl worker-pool size; QueuedUnits the units waiting
	// for a worker.
	Workers     int `json:"workers"`
	QueuedUnits int `json:"queued_units"`
	// Hosts counts the hosts the politeness registry tracks (idle ones age
	// out past 1,024).
	Hosts int `json:"hosts"`
	// StorePath is the daemon's durable store directory.
	StorePath string `json:"store_path"`
}

// Error is the API's error envelope: every non-2xx response carries one as
// JSON, and the Client returns it as the error value.
type Error struct {
	// Status is the HTTP status code (not serialized; set from the
	// response).
	Status int `json:"-"`
	// Code is a stable machine-readable cause: "invalid", "not_found",
	// "conflict", "limit_exceeded".
	Code string `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"error"`
}

func (e *Error) Error() string { return fmt.Sprintf("crawld: %s (%s)", e.Message, e.Code) }

// API error constructors.
func errInvalid(format string, args ...any) *Error {
	return &Error{Status: 400, Code: "invalid", Message: fmt.Sprintf(format, args...)}
}
func errNotFound(id string) *Error {
	return &Error{Status: 404, Code: "not_found", Message: fmt.Sprintf("no session %q", id)}
}
func errConflict(format string, args ...any) *Error {
	return &Error{Status: 409, Code: "conflict", Message: fmt.Sprintf(format, args...)}
}
func errLimit(format string, args ...any) *Error {
	return &Error{Status: 429, Code: "limit_exceeded", Message: fmt.Sprintf(format, args...)}
}

// SessionID derives the stable session identifier from (tenant, name) — the
// same pair always maps to the same ID, which is what makes session
// creation idempotent and re-attach trivial.
func SessionID(tenant, name string) string {
	h := fnv.New64a()
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return fmt.Sprintf("%016x", h.Sum64())
}
