package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/telemetry"
	ftrace "github.com/decwi/decwi/internal/telemetry/flight"
	"github.com/decwi/decwi/internal/telemetry/slo"
)

// This file is the job scheduler: the layer between the HTTP API and
// the work-stealing engine. It owns admission (bounded queue, per-tenant
// token buckets, a hard draining gate), a fixed executor pool, the job
// registry, and the lifecycle of every job record. Admission decisions
// are immediate — a request that cannot be queued is rejected with a
// typed error the HTTP layer maps onto 429/503, never parked — so
// overload surfaces as backpressure, not as unbounded latency.

// Typed admission errors. The HTTP layer maps these onto status codes;
// anything else Submit returns is a *ValidationError (400).
var (
	// ErrDraining: the scheduler has stopped admitting (SIGTERM path).
	ErrDraining = errors.New("serve: draining, not admitting new jobs")
	// ErrQueueFull: the bounded admission queue is at capacity.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrQuota: the tenant's token bucket is empty.
	ErrQuota = errors.New("serve: tenant quota exhausted")
)

// ValidationError marks a spec the single validation gate rejected —
// a client error (HTTP 400), never a server state.
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }
func (e *ValidationError) Unwrap() error { return e.Err }

// Config parameterizes a Scheduler. The zero value of every field
// selects its default.
type Config struct {
	// QueueDepth bounds the admission queue (default 64). A full queue
	// rejects with ErrQueueFull instead of blocking the submitter.
	QueueDepth int
	// Executors is the number of jobs serviced concurrently (default 2).
	// Total host parallelism is bounded by Executors · Limits.MaxJobWorkers.
	Executors int
	// DefaultTimeout bounds jobs that carry no TimeoutMS (default 60s).
	DefaultTimeout time.Duration
	// QuotaRate is the per-tenant admission rate in jobs/second
	// (token-bucket refill; ≤ 0 disables quotas). QuotaBurst is the
	// bucket capacity (default 8).
	QuotaRate  float64
	QuotaBurst int
	// RetainJobs caps how many terminal job records (including their
	// payloads) the registry keeps; the oldest are evicted first
	// (default 1024). DELETE evicts eagerly.
	RetainJobs int
	// CacheBytes budgets the deterministic result cache (default
	// 64 MiB; negative disables caching). Hits are served without
	// touching quota, queue or executors — the determinism guarantee
	// makes the cached bytes identical to a fresh run's. Concurrent
	// identical submissions coalesce onto one engine run either way.
	CacheBytes int64
	// CacheTenantBytes caps one tenant's attributed share of the cache
	// (default CacheBytes/4). A tenant over its share evicts its own
	// oldest entries first, so one tenant cannot flush the others.
	CacheTenantBytes int64
	// FastPathValues once let small jobs run inline on the submitting
	// goroutine; every leader now takes the queue.
	//
	// Deprecated: has no effect.
	FastPathValues int64
	// Limits are the per-job admission bounds specs are validated
	// against.
	Limits Limits
	// Telemetry, when non-nil, receives the serve.* instruments plus
	// the engine's own metrics for every job run (nil is fully
	// supported: all recorder methods are nil-receiver safe).
	Telemetry *telemetry.Recorder
	// Flight, when non-nil, is the per-job flight recorder: every
	// submission owns a trace (admission → validation → quota → cache →
	// dedup → queue wait → engine run → per-chunk execution) retained in
	// the recorder's bounded ring and served on /debug/jobs. nil is
	// tracing-off under the same nil-receiver no-op contract as
	// Telemetry — the hot path then carries only predictable branches.
	Flight *ftrace.Recorder
	// Logger, when non-nil, receives structured job-lifecycle records
	// (rejections, terminal states, SLO transitions) carrying
	// trace_id/job_id/tenant fields. nil logs nothing.
	Logger *slog.Logger
	// SLOLatency is the per-job latency objective: a done job slower
	// than this — or any failed job — spends error budget. 0 selects
	// 500ms; negative disables the SLO plane entirely.
	SLOLatency time.Duration
	// SLOTarget is the objective success ratio (default 0.99);
	// SLOShortWindow/SLOLongWindow are the multi-window burn-rate
	// windows (defaults 5m and 1h). Both windows must burn at 1.0 or
	// more for Degraded.
	SLOTarget      float64
	SLOShortWindow time.Duration
	SLOLongWindow  time.Duration
	// ExecDelay injects a fixed pause before every engine run — the
	// fault hook behind decwi-served -inject-exec-delay, used to drive
	// the SLO plane into degradation on demand. 0 in production.
	ExecDelay time.Duration

	// now is the injectable clock (tests); nil selects time.Now.
	now func() time.Time
	// runHook, when non-nil, replaces job execution (in-package tests
	// use it to park jobs deterministically — rejection sampling offers
	// no natural way to make a real job block on demand).
	runHook func(ctx context.Context, spec *JobSpec) ([]byte, *execMeta, error)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Executors == 0 {
		c.Executors = 2
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.QuotaBurst == 0 {
		c.QuotaBurst = 8
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 1024
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheTenantBytes == 0 {
		c.CacheTenantBytes = c.CacheBytes / 4
	}
	if c.SLOLatency == 0 {
		c.SLOLatency = 500 * time.Millisecond
	}
	if c.SLOTarget == 0 {
		c.SLOTarget = 0.99
	}
	if c.SLOShortWindow == 0 {
		c.SLOShortWindow = 5 * time.Minute
	}
	if c.SLOLongWindow == 0 {
		c.SLOLongWindow = time.Hour
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// execMeta is the per-kind result metadata the executor hands back next
// to the payload bytes.
type execMeta struct {
	rejectionRate float64
	chunks        int
	steals        int
	risk          *decwi.RiskReport
}

// Job is one submitted job record: spec, lifecycle state, and (once
// done) the result payload. All mutable state is guarded by mu; done is
// closed exactly once, by onTerminal, after the terminal transition's
// bookkeeping.
//
// Execution belongs to the job's flight, not the job: every admitted
// job is attached to exactly one flight (cache-hit jobs, born
// terminal, have none), and coalesced jobs share a flight with the
// submission that created it. Cancel detaches from the flight; the
// shared run is aborted only when the last waiter leaves. Lock order:
// Scheduler.mu → Job.mu.
type Job struct {
	ID   string
	Spec JobSpec // validated, canonicalized replay tuple

	s         *Scheduler
	flight    *flight // nil only for cache-hit jobs
	submitted time.Time
	cached    bool // answered from the result cache, no engine run
	coalesced bool // attached to another submission's flight

	// trace is the job's flight-recorder timeline (nil when tracing is
	// off); root is its top-level span and waitSpan the open
	// queue-wait/shared-run-wait span markRunning closes. lane names the
	// admission lane that served the job ("cache-hit", "coalesced",
	// "queued"). All four are written only during admission
	// while Scheduler.mu is held (readers reach the job through that
	// mutex or through Submit's return) and are immutable afterwards.
	trace    *ftrace.Trace
	root     ftrace.SpanID
	waitSpan ftrace.SpanID
	lane     string

	mu            sync.Mutex
	state         JobState
	started       time.Time
	finished      time.Time
	userCancelled bool
	errMsg        string
	res           *result
	meta          execMeta
	done          chan struct{}
}

// markRunning records the queued→running transition (called by the
// job's flight when the shared run starts, or at attach time when it
// already has).
func (j *Job) markRunning(now time.Time) {
	j.mu.Lock()
	var tr *ftrace.Trace
	var wait ftrace.SpanID
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = now
		tr, wait = j.trace, j.waitSpan
	}
	j.mu.Unlock()
	if tr != nil && wait != 0 {
		tr.End(wait)
	}
}

// attachTrace binds a trace to the job record and registers the job id
// as a /debug/jobs lookup key. lane may be "" when the admission lane
// is not yet decided (admitLeaderLocked settles it).
func (j *Job) attachTrace(tr *ftrace.Trace, root ftrace.SpanID, lane string) {
	j.trace = tr
	j.root = root
	tr.SetJob(j.ID)
	if lane != "" {
		j.lane = lane
		tr.SetLane(lane)
	}
}

// Done is closed once the job has reached a terminal state and the
// scheduler has settled it: the retention cap is applied and the trace
// sealed (the long-poll and drain paths select on it).
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the externally visible job record.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Kind:      j.Spec.Kind,
		State:     j.state,
		Tenant:    j.Spec.Tenant,
		Config:    j.Spec.Config,
		Seed:      j.Spec.Seed,
		Error:     j.errMsg,
		Cached:    j.cached,
		Coalesced: j.coalesced,

		TraceID:        j.trace.TraceID(),
		Lane:           j.lane,
		AdmittedUnixUS: j.submitted.UnixMicro(),
	}
	if !j.started.IsZero() {
		st.StartedUnixUS = j.started.UnixMicro()
	}
	if !j.finished.IsZero() {
		st.FinishedUnixUS = j.finished.UnixMicro()
	}
	switch {
	case !j.started.IsZero():
		st.QueueWaitUS = j.started.Sub(j.submitted).Microseconds()
	case j.state.Terminal():
		// Cancelled before an executor ever claimed it: the wait ended
		// at the terminal transition, not at observation time.
		st.QueueWaitUS = j.finished.Sub(j.submitted).Microseconds()
	default:
		st.QueueWaitUS = j.s.now().Sub(j.submitted).Microseconds()
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		st.ServiceUS = j.finished.Sub(j.started).Microseconds()
	}
	if j.state == StateDone {
		st.Bytes = j.res.size()
		st.SHA256 = j.res.sha
		st.RejectionRate = j.meta.rejectionRate
		st.Chunks = j.meta.chunks
		st.Steals = j.meta.steals
		st.Risk = j.meta.risk
	}
	return st
}

// Result returns the job's result (nil until StateDone) and state.
func (j *Job) Result() (*result, JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.state
}

// Cancel requests cancellation by detaching the job from its flight: a
// queued job goes terminal immediately, and a running job's record
// does too — but the shared engine execution is aborted only when this
// was the LAST job attached to it (coalesced waiters must not lose
// their result to someone else's cancel). Returns false if the job was
// already terminal or its result is already landing.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.userCancelled = true
	j.mu.Unlock()
	f := j.flight
	if f == nil {
		// Cache-hit jobs are born terminal; a non-terminal job always
		// carries a flight.
		return false
	}
	s := j.s
	s.mu.Lock()
	detached, emptied, abort := f.detach(j)
	if emptied {
		// Last waiter gone: the flight leaves the index so a later
		// identical submission leads a fresh one, and a queued flight is
		// skipped when an executor claims it.
		s.cache.release(f)
	}
	s.mu.Unlock()
	if !detached {
		// The flight is sealed: the run's outcome resolves this job.
		return false
	}
	if abort != nil {
		abort()
	}
	now := s.now()
	j.mu.Lock()
	j.state = StateCancelled
	j.finished = now
	if j.started.IsZero() {
		j.errMsg = "cancelled before start"
	} else {
		j.errMsg = "cancelled"
	}
	j.mu.Unlock()
	s.onTerminal(j, StateCancelled)
	return true
}

// Scheduler admits, queues and multiplexes jobs onto the engine.
type Scheduler struct {
	cfg    Config
	quotas *quotaSet
	now    func() time.Time

	base  context.Context
	abort context.CancelFunc

	// mu guards the registry, the queue's sender side, and the
	// replay-tuple index with every flight's waiter set.
	mu       sync.Mutex
	draining bool
	queue    chan *flight
	cache    *resultCache // cached results and live flights, by cache key
	jobs     map[string]*Job
	terminal []string // eviction FIFO of terminal job IDs
	seq      int64

	wg sync.WaitGroup

	rec        *telemetry.Recorder
	gDepth     *telemetry.Gauge
	gInflight  *telemetry.Gauge
	hQueueWait *telemetry.Histogram
	hService   *telemetry.Histogram

	cHits       *telemetry.Counter
	cMisses     *telemetry.Counter
	cEvictions  *telemetry.Counter
	cRefusals   *telemetry.Counter
	cCoalesced  *telemetry.Counter
	gCacheBytes *telemetry.Gauge
	gCacheEnts  *telemetry.Gauge
	hHitUS      *telemetry.Histogram

	// The observability plane: flight recorder, structured logger, and
	// the latency SLO tracker with its cumulative good/bad counters
	// (the tracker samples these on demand in SLOStatus).
	flightRec   *ftrace.Recorder
	logger      *slog.Logger // nil = logging off (call sites guard)
	slo         *slo.Tracker // nil = SLO plane off
	sloGood     atomic.Int64
	sloBad      atomic.Int64
	sloDegraded atomic.Bool // last published state, for transition logs

	cTraceJobs     *telemetry.Counter
	cTraceSpans    *telemetry.Counter
	gTraceRetained *telemetry.Gauge
	gTracePinned   *telemetry.Gauge
	cSLOGood       *telemetry.Counter
	cSLOBad        *telemetry.Counter
	hSLOLat        *telemetry.Histogram
	gBurnShort     *telemetry.Gauge
	gBurnLong      *telemetry.Gauge
	gDegraded      *telemetry.Gauge

	// labelMu/labels bound per-tenant metric cardinality: tenant names
	// are client-supplied, and each distinct name interns counters
	// permanently in the recorder. Beyond maxTenantLabels distinct
	// tenants, further names fold into the catch-all label.
	labelMu sync.Mutex
	labels  map[string]struct{}
}

// maxTenantLabels caps how many distinct tenant names get their own
// serve.* counter instances; the rest share tenantOverflowLabel. The
// quota buckets have their own, larger cap (maxQuotaBuckets) — folding
// there would let tenants share buckets, which matters; shared metric
// lines only lose per-tenant attribution.
const maxTenantLabels = 64

// tenantOverflowLabel is the catch-all instance label once the tenant
// label set is full. It matches the tenant grammar, so a real tenant of
// this name simply shares the line.
const tenantOverflowLabel = "other-tenants"

// New builds a scheduler and starts its executor pool. The pool runs
// until Drain; every goroutine it starts is joined by Drain.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	rec := cfg.Telemetry
	s := &Scheduler{
		cfg:    cfg,
		quotas: newQuotaSet(cfg.QuotaRate, cfg.QuotaBurst),
		now:    cfg.now,
		queue:  make(chan *flight, cfg.QueueDepth),
		cache:  newResultCache(cfg.CacheBytes, cfg.CacheTenantBytes),
		jobs:   map[string]*Job{},
		labels: map[string]struct{}{},
		rec:    rec,
		gDepth: rec.Gauge("serve.queue-depth", "events",
			"jobs admitted but not yet claimed by an executor"),
		gInflight: rec.Gauge("serve.jobs-inflight", "events",
			"jobs currently executing on the engine"),
		hQueueWait: rec.Histogram("serve.queue-wait-us", "us",
			"admission-to-execution wait per job — the backpressure signal"),
		hService: rec.Histogram("serve.service-us", "us",
			"execution wall time per job (engine run + payload encode)"),
		cHits: rec.Counter("serve.cache.hits", "events",
			"submissions answered from the deterministic result cache without an engine run"),
		cMisses: rec.Counter("serve.cache.misses", "events",
			"submissions whose replay tuple was not cached"),
		cEvictions: rec.Counter("serve.cache.evictions", "events",
			"cache entries evicted under the byte budget or a tenant cap"),
		cRefusals: rec.Counter("serve.cache.admission-refusals", "events",
			"completed results not cached because making room would evict a more-requested entry"),
		cCoalesced: rec.Counter("serve.dedup.coalesced", "events",
			"submissions coalesced onto another submission's in-flight execution"),
		gCacheBytes: rec.Gauge("serve.cache.bytes", "bytes",
			"current result-cache occupancy"),
		gCacheEnts: rec.Gauge("serve.cache.entries", "events",
			"current result-cache entry count"),
		hHitUS: rec.Histogram("serve.cache.hit-us", "us",
			"submit-to-terminal latency of cache-hit jobs"),
		flightRec: cfg.Flight,
		logger:    cfg.Logger,
		cTraceJobs: rec.Counter("serve.trace.jobs", "events",
			"job traces started by the flight recorder"),
		cTraceSpans: rec.Counter("serve.trace.spans", "events",
			"spans recorded across finished job traces (stored + dropped)"),
		gTraceRetained: rec.Gauge("serve.trace.retained", "events",
			"traces currently retained by the flight recorder (ring + pinned)"),
		gTracePinned: rec.Gauge("serve.trace.pinned", "events",
			"slow/failed traces pinned past ring eviction"),
		cSLOGood: rec.Counter("serve.slo.good", "events",
			"terminal jobs that met the latency/error objective"),
		cSLOBad: rec.Counter("serve.slo.bad", "events",
			"terminal jobs that failed or exceeded the latency objective"),
		hSLOLat: rec.Histogram("serve.slo.latency-us", "us",
			"submit-to-terminal latency of SLO-accounted jobs"),
		gBurnShort: rec.Gauge("serve.slo.burn-short-x1000", "events",
			"short-window error-budget burn rate ×1000"),
		gBurnLong: rec.Gauge("serve.slo.burn-long-x1000", "events",
			"long-window error-budget burn rate ×1000"),
		gDegraded: rec.Gauge("serve.slo.degraded", "events",
			"1 while both burn windows exceed the threshold, else 0"),
	}
	if cfg.SLOLatency > 0 {
		s.slo = slo.New(slo.Config{
			Name:        "serve-latency",
			Target:      cfg.SLOTarget,
			ShortWindow: cfg.SLOShortWindow,
			LongWindow:  cfg.SLOLongWindow,
		})
	}
	s.base, s.abort = context.WithCancel(context.Background())
	s.wg.Add(cfg.Executors)
	for i := 0; i < cfg.Executors; i++ {
		go s.executor()
	}
	return s
}

// tenantCounter interns one per-tenant lifecycle counter. Tenant names
// passed here are always post-validation, so the instance label can
// never break the metric naming grammar; cardinality is bounded by
// tenantLabel's fold.
func (s *Scheduler) tenantCounter(stem, tenant, desc string) *telemetry.Counter {
	return s.rec.Counter(stem+"["+s.tenantLabel(tenant)+"]", "events", desc)
}

// tenantLabel maps a tenant name onto its metric instance label. The
// first maxTenantLabels distinct names keep their own label; later
// ones fold into tenantOverflowLabel so client-chosen names cannot
// grow the recorder without bound.
func (s *Scheduler) tenantLabel(tenant string) string {
	s.labelMu.Lock()
	defer s.labelMu.Unlock()
	if _, ok := s.labels[tenant]; ok {
		return tenant
	}
	if len(s.labels) >= maxTenantLabels {
		return tenantOverflowLabel
	}
	s.labels[tenant] = struct{}{}
	return tenant
}

// rejectedDesc/admittedDesc keep the per-tenant lifecycle counter
// descriptions in one place.
const (
	rejectedDesc = "submissions rejected by admission control (draining, queue full, or quota)"
	admittedDesc = "jobs accepted into the admission queue"
)

// Submit validates spec, applies admission control, and admits the job
// through the cheapest lane that can serve it. One lookup in the
// replay-tuple index, under Scheduler.mu, picks the lane:
//
//  1. cache hit — the replay tuple's result is already cached; the job
//     is returned terminal (StateDone) without touching quota, queue or
//     executors;
//  2. coalesce — an identical tuple is already queued or running; the
//     job attaches as a waiter and shares that execution;
//  3. queue — the job leads a fresh flight through the bounded
//     hand-off to the executor pool.
//
// Submit never blocks on execution: a request that cannot be admitted
// is refused with ValidationError, ErrDraining, ErrQueueFull or
// ErrQuota, never parked. Cache hits and coalesced waiters deliberately
// skip the quota spend — they cost no engine time, and the token
// bucket protects the engine.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitTraced(spec, "")
}

// SubmitTraced is Submit carrying the caller's raw W3C traceparent
// header ("" = none). A well-formed header has its trace id adopted, so
// a client can follow one id across its own logs, the server's
// structured logs, and /debug/jobs; anything else gets a freshly minted
// id. With tracing off (Config.Flight nil) the trace is a nil *Trace
// and every span operation below is a no-op.
func (s *Scheduler) SubmitTraced(spec JobSpec, traceparent string) (*Job, error) {
	tr := s.flightRec.Start(ftrace.TraceIDFrom(traceparent), string(spec.Kind))
	if tr != nil {
		s.cTraceJobs.Add(1)
	}
	root := tr.Begin("job", 0)
	vspan := tr.Begin("validate", root)
	if err := spec.Validate(s.cfg.Limits); err != nil {
		tr.EndDetail(vspan, err.Error(), 0)
		s.rejectTrace(tr, spec.Tenant, "validate", err)
		return nil, &ValidationError{Err: err}
	}
	tr.End(vspan)
	tr.SetTenant(spec.Tenant)
	now := s.now()
	key := spec.cacheKey()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.tenantCounter("serve.jobs-rejected", spec.Tenant, rejectedDesc).Add(1)
		s.rejectTrace(tr, spec.Tenant, "draining", ErrDraining)
		return nil, ErrDraining
	}

	cspan := tr.Begin("cache-lookup", root)
	e := s.cache.lookup(key)
	if e != nil && e.fl == nil {
		// Lane 1: the deterministic result cache.
		tr.EndDetail(cspan, "hit", int64(e.res.size()))
		job := s.newJobLocked(spec, now)
		job.cached = true
		job.state = StateDone
		job.started = now
		job.finished = now
		job.res = e.res
		job.meta = e.meta
		job.attachTrace(tr, root, "cache-hit")
		s.jobs[job.ID] = job
		s.mu.Unlock()
		s.cHits.Add(1)
		s.hHitUS.Record(s.now().Sub(now).Microseconds())
		s.tenantCounter("serve.jobs-admitted", spec.Tenant, admittedDesc).Add(1)
		s.onTerminal(job, StateDone)
		return job, nil
	}
	if s.cache.enabled() {
		tr.EndDetail(cspan, "miss", 0)
		s.cMisses.Add(1)
	} else {
		tr.EndDetail(cspan, "disabled", 0)
	}

	if e != nil {
		// Lane 2: coalesce onto the identical tuple's live flight. The
		// entry is in the index, so the flight is not yet sealed.
		f := e.fl
		dspan := tr.Begin("dedup", root)
		job := s.newJobLocked(spec, now)
		job.flight = f
		job.coalesced = true
		job.attachTrace(tr, root, "coalesced")
		job.waitSpan = tr.Begin("shared-run-wait", root)
		f.attach(job, now)
		tr.EndDetail(dspan, "coalesced onto "+f.leaderID, 0)
		s.jobs[job.ID] = job
		s.mu.Unlock()
		s.cCoalesced.Add(1)
		s.tenantCounter("serve.jobs-admitted", spec.Tenant, admittedDesc).Add(1)
		return job, nil
	}
	tr.Event("dedup", root, "leader")

	job := s.newJobLocked(spec, now)
	job.attachTrace(tr, root, "")
	if err := s.admitLeaderLocked(job, key, now); err != nil {
		return nil, err
	}
	return job, nil
}

// newJobLocked mints a job record (caller holds s.mu). The job is not
// yet registered in the jobs map — the admitting lane does that once
// admission is certain.
func (s *Scheduler) newJobLocked(spec JobSpec, now time.Time) *Job {
	s.seq++
	return &Job{
		ID:        fmt.Sprintf("j-%08d", s.seq),
		Spec:      spec,
		s:         s,
		submitted: now,
		state:     StateQueued,
		done:      make(chan struct{}),
	}
}

// admitLeaderLocked runs the admission path for a job leading a fresh
// flight (lane 3): queue-capacity and quota checks, then the bounded
// queue hand-off. Called with s.mu held; releases it on every path.
func (s *Scheduler) admitLeaderLocked(job *Job, key string, now time.Time) error {
	spec := &job.Spec
	tr, root := job.trace, job.root
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.tenantCounter("serve.jobs-rejected", spec.Tenant, rejectedDesc).Add(1)
		s.rejectTrace(tr, spec.Tenant, "queue", ErrQueueFull)
		return ErrQueueFull
	}
	qspan := tr.Begin("quota", root)
	if !s.quotas.allow(spec.Tenant, now) {
		tr.EndDetail(qspan, "denied", 0)
		s.mu.Unlock()
		s.tenantCounter("serve.jobs-rejected", spec.Tenant, rejectedDesc).Add(1)
		s.rejectTrace(tr, spec.Tenant, "quota", ErrQuota)
		return ErrQuota
	}
	tr.EndDetail(qspan, "allowed", 0)
	f := newFlight(key, job.Spec, job)
	job.flight = f
	s.cache.lead(f)
	s.jobs[job.ID] = job

	espan := tr.Begin("enqueue", root)
	job.lane = "queued"
	tr.SetLane("queued")
	tr.EndDetail(espan, "queued", int64(len(s.queue)))
	job.waitSpan = tr.Begin("queue-wait", root)
	// Depth is incremented before the send so an executor claiming the
	// flight immediately can never decrement first (the gauge would
	// read a transient -1 otherwise). Every sender checks capacity under
	// mu and executors only drain the channel, so a full queue here is a
	// bug, not a state to block on while holding mu.
	s.gDepth.Add(1)
	select {
	case s.queue <- f:
	default:
		panic("serve: admission queue full after its capacity check")
	}
	s.mu.Unlock()
	s.tenantCounter("serve.jobs-admitted", spec.Tenant, admittedDesc).Add(1)
	return nil
}

// Get returns the job record, or nil if unknown (never submitted, or
// already evicted).
func (s *Scheduler) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Remove evicts a settled job record (freeing its payload). Returns
// false until the job's Done channel is closed — while it is queued or
// running (Cancel it first), and in the moment between its terminal
// transition and onTerminal's retention entry, which a Remove in that
// window would otherwise leave behind as a stale FIFO entry.
func (s *Scheduler) Remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return false
	}
	select {
	case <-j.done:
	default:
		return false
	}
	delete(s.jobs, id)
	// Purge the retention FIFO too: a removed ID left in place would
	// still count against RetainJobs and evict a live record early —
	// every explicit Remove silently shrank the effective retention
	// window by one.
	for i, tid := range s.terminal {
		if tid == id {
			s.terminal = append(s.terminal[:i], s.terminal[i+1:]...)
			break
		}
	}
	return true
}

// Drain stops admission and waits for every admitted job to finish —
// the SIGTERM semantics: in-flight work completes, new work is rejected
// with ErrDraining. If ctx expires first the base context is cancelled
// (running jobs stop at the next chunk boundary and go terminal) and
// Drain still joins every executor before returning the ctx error.
// After Drain returns no scheduler goroutine is left running.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		// Safe: every sender checks s.draining under this same mutex
		// before touching the channel.
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.abort()
		<-done
		return fmt.Errorf("serve: drain aborted: %w", ctx.Err())
	}
}

// executor is one pool worker: it claims queued flights until the queue
// is closed and drained.
func (s *Scheduler) executor() {
	defer s.wg.Done()
	for f := range s.queue {
		s.gDepth.Add(-1)
		s.runFlight(f)
	}
}

// runFlight executes one claimed flight end to end: one engine run,
// fanned out to every job still attached at completion. Completion
// swaps the flight's index entry for its result (or deletes it) and
// seals the waiter set in one critical section, so a submission racing
// the completion either coalesces onto this flight or hits the cache —
// it never recomputes.
func (s *Scheduler) runFlight(f *flight) {
	start := s.now()
	timeout := time.Duration(f.spec.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(s.base, timeout)
	defer cancel()

	s.mu.Lock()
	waiters := f.begin(cancel, start)
	s.mu.Unlock()
	if waiters == nil {
		// Every waiter cancelled before the flight was claimed; the last
		// one's Cancel already took it out of the index.
		return
	}
	for _, j := range waiters {
		s.hQueueWait.Record(start.Sub(j.submitted).Microseconds())
	}

	// The engine-run span lives on the leader's trace; per-chunk spans
	// nest under it via ParallelOptions.Trace. If the leader cancelled
	// (its trace already sealed), Begin returns 0 and the run simply
	// goes unspanned there — the coalesced waiters still get their
	// shared-timing copy in completeJob.
	runSpan := f.leaderTrace.Begin("engine-run", f.leaderRoot)
	s.gInflight.Add(1)
	res, meta, err := s.executeRecovering(ctx, &f.spec, f.leaderTrace, runSpan)
	finished := s.now()
	s.gInflight.Add(-1)
	s.hService.Record(finished.Sub(start).Microseconds())
	if err != nil {
		f.leaderTrace.EndDetail(runSpan, err.Error(), 0)
	} else {
		f.leaderTrace.EndDetail(runSpan, "", int64(res.size()))
	}

	s.mu.Lock()
	if s.cache.release(f) && err == nil {
		var m execMeta
		if meta != nil {
			m = *meta
		}
		inserted, refused, evicted := s.cache.put(f.key, f.spec.Tenant, res, m)
		if n := len(evicted); n > 0 {
			s.cEvictions.Add(int64(n))
		}
		if refused {
			s.cRefusals.Add(1)
		}
		if inserted || len(evicted) > 0 {
			s.gCacheBytes.Set(s.cache.totalBytes())
			s.gCacheEnts.Set(int64(s.cache.len()))
		}
	}
	waiters = f.seal()
	s.mu.Unlock()
	for _, j := range waiters {
		s.completeJob(j, f, start, finished, timeout, res, meta, err)
	}
}

// completeJob lands one flight outcome on one job of the sealed waiter
// set. Such a job cannot be terminal yet: Cancel only finishes a job it
// detached, and seal and detach run under the same lock.
func (s *Scheduler) completeJob(j *Job, f *flight, runStart, finished time.Time, timeout time.Duration, res *result, meta *execMeta, err error) {
	j.mu.Lock()
	j.finished = finished
	switch {
	case err == nil:
		j.state = StateDone
		j.res = res
		if meta != nil {
			j.meta = *meta
		}
	case j.userCancelled || errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.errMsg = "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("timeout after %v", timeout)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	state := j.state
	j.mu.Unlock()
	if j.coalesced {
		// A waiter's timeline shows the shared run with the leader's
		// timing. Root-level on purpose: the run may have started before
		// this waiter's own trace (late attach), so nesting it under the
		// waiter's root could break parent/child time containment.
		j.trace.Add("engine-run", 0, runStart, finished,
			"shared with "+f.leaderID, int64(res.size()))
	}
	s.onTerminal(j, state)
}

// onTerminal records the lifecycle counter, settles the job's SLO
// accounting and trace, emits the structured terminal log line, applies
// the retention cap to the registry, and only then closes the job's
// Done channel, so a Done waiter sees the registry and the sealed trace
// already settled. It runs exactly once per job: every terminal
// transition (cache hit, cancel, flight fan-out) funnels through it.
func (s *Scheduler) onTerminal(job *Job, state JobState) {
	switch state {
	case StateDone:
		s.tenantCounter("serve.jobs-done", job.Spec.Tenant,
			"jobs completed with a result payload").Add(1)
	case StateCancelled:
		s.tenantCounter("serve.jobs-cancelled", job.Spec.Tenant,
			"jobs cancelled by the client or a draining abort").Add(1)
	default:
		s.tenantCounter("serve.jobs-failed", job.Spec.Tenant,
			"jobs that ended in an execution error or timeout").Add(1)
	}

	job.mu.Lock()
	started := job.started
	finished := job.finished
	errMsg := job.errMsg
	bytes := job.res.size()
	job.mu.Unlock()
	latency := finished.Sub(job.submitted)

	// SLO accounting: cancellations are the client's choice, not the
	// server missing its objective, so they spend no budget.
	if s.slo != nil && state != StateCancelled {
		s.hSLOLat.Record(latency.Microseconds())
		if state == StateFailed || latency > s.cfg.SLOLatency {
			s.sloBad.Add(1)
			s.cSLOBad.Add(1)
		} else {
			s.sloGood.Add(1)
			s.cSLOGood.Add(1)
		}
	}

	s.finishTrace(job.trace, string(state), errMsg)

	if s.logger != nil {
		queueWait := latency
		var service time.Duration
		if !started.IsZero() {
			queueWait = started.Sub(job.submitted)
			service = finished.Sub(started)
		}
		args := []any{
			slog.String("job_id", job.ID),
			slog.String("trace_id", job.trace.TraceID()),
			slog.String("tenant", job.Spec.Tenant),
			slog.String("state", string(state)),
			slog.String("lane", job.lane),
			slog.Int64("queue_wait_us", queueWait.Microseconds()),
			slog.Int64("service_us", service.Microseconds()),
			slog.Int("bytes", bytes),
		}
		if errMsg != "" {
			args = append(args, slog.String("error", errMsg))
		}
		s.logger.Info("job terminal", args...)
	}

	s.mu.Lock()
	s.terminal = append(s.terminal, job.ID)
	for len(s.terminal) > s.cfg.RetainJobs {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	s.mu.Unlock()
	close(job.done)
}

// finishTrace seals a trace and settles the serve.trace.* instruments.
func (s *Scheduler) finishTrace(tr *ftrace.Trace, state, errMsg string) {
	if tr == nil {
		return
	}
	tr.Finish(state, errMsg)
	s.cTraceSpans.Add(int64(tr.SpanCount()))
	st := s.flightRec.Stats()
	s.gTraceRetained.Set(int64(st.Retained))
	s.gTracePinned.Set(int64(st.Pinned))
}

// rejectTrace seals a rejected submission's trace and logs the
// rejection. The per-tenant rejection counters stay at the call sites
// (a validation rejection precedes tenant canonicalization and records
// no counter, matching the pre-tracing behavior).
func (s *Scheduler) rejectTrace(tr *ftrace.Trace, tenant, gate string, err error) {
	if s.logger != nil {
		s.logger.Warn("job rejected",
			slog.String("gate", gate),
			slog.String("tenant", tenant),
			slog.String("trace_id", tr.TraceID()),
			slog.String("error", err.Error()))
	}
	s.finishTrace(tr, "rejected", err.Error())
}

// FlightRecorder exposes the flight recorder (nil when tracing is off)
// for the /debug/jobs endpoints and CLI wiring.
func (s *Scheduler) FlightRecorder() *ftrace.Recorder { return s.flightRec }

// SLOStatus evaluates the latency/error objective against the current
// cumulative counters, settles the serve.slo.* gauges, and logs
// degradation transitions. With the SLO plane disabled it returns the
// zero (healthy) Status.
func (s *Scheduler) SLOStatus() slo.Status {
	if s.slo == nil {
		return slo.Status{}
	}
	st := s.slo.Evaluate(s.sloGood.Load(), s.sloBad.Load())
	s.gBurnShort.Set(int64(st.BurnShort * 1000))
	s.gBurnLong.Set(int64(st.BurnLong * 1000))
	if st.Degraded {
		s.gDegraded.Set(1)
	} else {
		s.gDegraded.Set(0)
	}
	if was := s.sloDegraded.Swap(st.Degraded); was != st.Degraded && s.logger != nil {
		if st.Degraded {
			s.logger.Warn("slo degraded", slog.String("reason", st.Reason))
		} else {
			s.logger.Info("slo recovered", slog.String("objective", st.Name))
		}
	}
	return st
}

// SLOHealth is the /healthz hook: healthy unless both burn windows are
// hot. With the SLO plane disabled it always reports healthy.
func (s *Scheduler) SLOHealth() (ok bool, reason string) {
	st := s.SLOStatus()
	if st.Degraded {
		return false, st.Reason
	}
	return true, ""
}

// executeRecovering is the panic barrier between one job and the rest
// of the server: Validate is the contract gate, but a spec that slips
// through it (or an engine bug) must fail that one job, not kill the
// executor goroutine and with it the whole process.
func (s *Scheduler) executeRecovering(ctx context.Context, spec *JobSpec, tr *ftrace.Trace, runSpan ftrace.SpanID) (res *result, meta *execMeta, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, meta = nil, nil
			err = fmt.Errorf("serve: job panicked: %v", r)
		}
	}()
	return s.execute(ctx, spec, tr, runSpan)
}

// execute runs the job's workload under ctx. The result is a pure
// function of the spec's replay tuple: the engine guarantees the
// generate bytes, and the risk report is a deterministic function of a
// seeded Monte-Carlo run. The generate lane encodes the device-layout
// []float32 into its wire bytes once, here, and keeps only those.
func (s *Scheduler) execute(ctx context.Context, spec *JobSpec, tr *ftrace.Trace, runSpan ftrace.SpanID) (*result, *execMeta, error) {
	if d := s.cfg.ExecDelay; d > 0 {
		// Fault injection: a deliberately slow executor, for driving the
		// SLO plane into degradation without a real overload.
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, nil, ctx.Err()
		case <-t.C:
		}
	}
	if s.cfg.runHook != nil {
		raw, meta, err := s.cfg.runHook(ctx, spec)
		if err != nil {
			return nil, nil, err
		}
		return newRawResult(raw), meta, nil
	}
	switch spec.Kind {
	case KindGenerate:
		opt := spec.generateOptions()
		opt.Telemetry = s.rec
		opt.Trace = tr
		opt.TraceSpan = runSpan
		res, err := decwi.GenerateParallelContext(ctx, decwi.ConfigID(spec.Config), opt)
		if err != nil {
			return nil, nil, err
		}
		dspan := tr.Begin("digest", runSpan)
		out := newValuesResult(res.Values)
		tr.EndDetail(dspan, "sha256:"+out.sha[:12], int64(out.size()))
		return out, &execMeta{
			rejectionRate: res.RejectionRate,
			chunks:        res.Chunks,
			steals:        res.Steals,
		}, nil
	case KindRisk:
		// The Monte-Carlo layer has no chunk boundaries to observe a
		// context at, so only the pre-start check applies; drain still
		// waits for the run, about 10–15 ms for the benchmark's risk shape
		// (Config2, 5,000 scenarios × 100 obligors).
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		v := spec.Variance
		if v == 0 {
			v = 1.39
		}
		p, err := decwi.NewUniformPortfolio(spec.Sectors, v, spec.Obligors, spec.PD, spec.Exposure)
		if err != nil {
			return nil, nil, err
		}
		rep, err := decwi.PortfolioRiskObserved(p, decwi.ConfigID(spec.Config),
			int(spec.Scenarios), spec.BandUnit, spec.Seed, s.rec)
		if err != nil {
			return nil, nil, err
		}
		payload, err := json.Marshal(rep)
		if err != nil {
			return nil, nil, err
		}
		dspan := tr.Begin("digest", runSpan)
		out := newRawResult(payload)
		tr.EndDetail(dspan, "sha256:"+out.sha[:12], int64(out.size()))
		return out, &execMeta{risk: rep}, nil
	default:
		return nil, nil, fmt.Errorf("serve: unknown job kind %q", spec.Kind)
	}
}
