// Package serve is the gamma-as-a-service layer: a long-lived job
// server that multiplexes many concurrent generation and risk requests
// onto the work-stealing parallel engine.
//
// The package splits into three pieces:
//
//   - the job model (this file): a JobSpec is the replay tuple — every
//     byte of a generate job's payload is a pure function of
//     (Config, Seed, workload options), so re-submitting a spec returns
//     bitwise-identical bytes, and those bytes equal sequential
//     decwi.Generate output (the engine's sequential-equivalence
//     tentpole extends across the network boundary);
//   - the Scheduler (scheduler.go): bounded admission queue, a fixed
//     executor pool, per-tenant token-bucket quotas (quota.go),
//     cancellation/timeout propagation into the engine's context
//     plumbing, and graceful drain (stop admitting, finish every
//     admitted job, join every goroutine);
//   - the HTTP Server (server.go): POST /v1/generate, POST /v1/risk,
//     GET /v1/jobs/{id} (long-poll with ?wait=), GET /v1/jobs/{id}/result,
//     DELETE /v1/jobs/{id}, with 429 + Retry-After under admission
//     pressure and 503 while draining.
//
// On top of the scheduler sits the serve fast lane (cache.go): because
// every payload is a pure function of its replay tuple, one index keyed
// by a canonical digest of that tuple holds each tuple's cached result
// or its live flight. A submission is answered from a byte-budgeted LRU
// without touching the queue, coalesces onto an identical tuple's
// shared engine run, or leads a fresh run through the queue — three
// lanes, decided by one lookup under the scheduler's lock. A result is
// encoded to its wire bytes and digested once, at job completion; every
// download is one write of those stored bytes.
//
// Telemetry rides on the same live metrics plane as the engine: queue
// and service histograms, depth/in-flight gauges, cache/dedup
// instruments, and per-tenant admitted/rejected/cancelled counters, all
// scrapeable from one metricsrv instance.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"regexp"
	"time"

	decwi "github.com/decwi/decwi"
)

// JobKind names the two workloads the server runs.
type JobKind string

const (
	// KindGenerate produces raw gamma variates: the payload is the
	// engine's device-layout []float32 encoded little-endian — exactly
	// the bytes decwi-gammagen writes for the same options.
	KindGenerate JobKind = "generate"
	// KindRisk runs the CreditRisk+ Monte-Carlo on a uniform portfolio:
	// the payload is the decwi.RiskReport as JSON.
	KindRisk JobKind = "risk"
)

// JobState is the job lifecycle. queued → running → one terminal state.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// tenantRE constrains tenant names to the charset the metric instance
// label allows, so per-tenant counters can never break the repo-wide
// naming lint.
var tenantRE = regexp.MustCompile(`^[a-z0-9-]{1,32}$`)

// DefaultTenant is assumed when a spec carries no tenant.
const DefaultTenant = "anon"

// JobSpec is a client job submission — and, for generate jobs, the
// deterministic replay tuple: two specs with equal workload fields
// yield bitwise-identical payloads, regardless of scheduling fields,
// server load, or goroutine interleaving.
type JobSpec struct {
	// Kind is implied by the submission endpoint; it is stored so the
	// job record is self-describing.
	Kind JobKind `json:"kind,omitempty"`
	// Config selects the Table I kernel configuration (1-4, or 5 for
	// the ziggurat extension).
	Config int `json:"config"`
	// Seed is the master seed (0 selects the library default, 1).
	Seed uint64 `json:"seed,omitempty"`
	// Scenarios is the number of gamma values per sector (generate) or
	// Monte-Carlo scenarios (risk). Required.
	Scenarios int64 `json:"scenarios"`
	// Sectors defaults to 1.
	Sectors int `json:"sectors,omitempty"`
	// Variance is the sector variance (0 selects the library default,
	// 1.39); Variances overrides it per sector.
	Variance  float64   `json:"variance,omitempty"`
	Variances []float64 `json:"variances,omitempty"`
	// WorkItems overrides the decoupled pipeline count (0 = the
	// configuration's place-and-route outcome).
	WorkItems int `json:"work_items,omitempty"`
	// StreamOffset fast-forwards every work-item's twister streams by
	// this many state words before generation (an O(log n) jump-ahead
	// seek). Part of the replay tuple: (seed, stream_offset) names the
	// stream window, so a checkpointed workload resumes by resubmitting
	// the same spec with the saved offset. Generate jobs only.
	StreamOffset uint64 `json:"stream_offset,omitempty"`

	// Scheduling knobs, forwarded to decwi.ParallelOptions. The server
	// is strict where the library clamps: a remote spec asking for
	// bigger chunks than there are work-items is rejected with 400
	// instead of silently normalized, so the stored replay tuple is
	// always canonical. Workers is required (≥ 1): admission control
	// accounts per-job host parallelism explicitly.
	Workers        int `json:"workers"`
	ChunkWorkItems int `json:"chunk_work_items,omitempty"`

	// Tenant scopes quota accounting and the per-tenant counters
	// (lowercase [a-z0-9-], ≤ 32 chars; empty selects "anon").
	Tenant string `json:"tenant,omitempty"`
	// TimeoutMS bounds job execution (0 = the server default). The
	// deadline propagates into the engine via GenerateParallelContext.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Risk-only portfolio shape (KindRisk): a uniform portfolio of
	// Obligors loans at probability-of-default PD and unit Exposure,
	// affiliated round-robin to Sectors. BandUnit > 0 adds the exact
	// Panjer recursion cross-check.
	Obligors int     `json:"obligors,omitempty"`
	PD       float64 `json:"pd,omitempty"`
	Exposure float64 `json:"exposure,omitempty"`
	BandUnit float64 `json:"band_unit,omitempty"`
}

// Limits are the server-side admission bounds a spec is validated
// against. The zero value of any field selects its default.
type Limits struct {
	// MaxScenarios caps Scenarios·Sectors per job (default 1<<26 —
	// a 256 MiB float32 payload).
	MaxScenarios int64
	// MaxJobWorkers caps the per-job engine worker count (default 16).
	MaxJobWorkers int
}

func (l Limits) withDefaults() Limits {
	if l.MaxScenarios == 0 {
		l.MaxScenarios = 1 << 26
	}
	if l.MaxJobWorkers == 0 {
		l.MaxJobWorkers = 16
	}
	return l
}

// Validate checks the spec against the limits and normalizes the
// defaultable fields (tenant, sectors, risk portfolio shape). It is the
// single gate between the network and the engine: everything it accepts
// must run without panicking, everything it rejects maps to HTTP 400.
func (spec *JobSpec) Validate(l Limits) error {
	l = l.withDefaults()
	switch spec.Kind {
	case KindGenerate, KindRisk:
	default:
		return fmt.Errorf("unknown job kind %q", spec.Kind)
	}
	info, err := decwi.ConfigID(spec.Config).Describe()
	if err != nil {
		return fmt.Errorf("config %d: not a known configuration", spec.Config)
	}
	if spec.Scenarios < 1 {
		return fmt.Errorf("scenarios %d must be ≥ 1", spec.Scenarios)
	}
	if spec.Sectors == 0 {
		spec.Sectors = 1
	}
	if spec.Sectors < 1 {
		return fmt.Errorf("sectors %d must be ≥ 1", spec.Sectors)
	}
	// Overflow-safe form of scenarios·sectors > MaxScenarios: both
	// factors are ≥ 1 here, so the product is over the cap exactly when
	// scenarios exceeds the per-sector budget — and the division can
	// never wrap the way the product can.
	if spec.Scenarios > l.MaxScenarios/int64(spec.Sectors) {
		return fmt.Errorf("scenarios·sectors %d·%d exceeds the server cap %d", spec.Scenarios, spec.Sectors, l.MaxScenarios)
	}
	if spec.Variance < 0 || math.IsNaN(spec.Variance) || math.IsInf(spec.Variance, 0) {
		return fmt.Errorf("variance %g must be a finite value ≥ 0 (0 selects the default)", spec.Variance)
	}
	for i, v := range spec.Variances {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("variances[%d] = %g must be a finite value > 0", i, v)
		}
	}
	if spec.Variances != nil && len(spec.Variances) != spec.Sectors {
		return fmt.Errorf("variances has %d entries for %d sectors", len(spec.Variances), spec.Sectors)
	}
	if spec.WorkItems < 0 {
		return fmt.Errorf("work_items %d must be ≥ 0 (0 selects the place-and-route outcome)", spec.WorkItems)
	}
	wi := spec.WorkItems
	if wi == 0 {
		wi = info.FPGAWorkItems
	}
	if spec.Workers < 1 {
		return fmt.Errorf("workers %d must be ≥ 1 (the server accounts per-job parallelism explicitly; it does not default it)", spec.Workers)
	}
	if spec.Workers > l.MaxJobWorkers {
		return fmt.Errorf("workers %d exceeds the per-job cap %d", spec.Workers, l.MaxJobWorkers)
	}
	if spec.ChunkWorkItems < 0 {
		return fmt.Errorf("chunk_work_items %d must be ≥ 0 (0 selects an even split)", spec.ChunkWorkItems)
	}
	if spec.ChunkWorkItems > wi {
		return fmt.Errorf("chunk_work_items %d exceeds the %d work-items of config %d", spec.ChunkWorkItems, wi, spec.Config)
	}
	if spec.Seed == 0 {
		// Canonicalize the replay tuple: the library would default the
		// seed anyway, and the stored spec must name the value actually
		// used.
		spec.Seed = 1
	}
	if spec.Tenant == "" {
		spec.Tenant = DefaultTenant
	}
	if !tenantRE.MatchString(spec.Tenant) {
		return fmt.Errorf("tenant %q must match %s", spec.Tenant, tenantRE)
	}
	if spec.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms %d must be ≥ 0", spec.TimeoutMS)
	}
	if spec.Kind == KindRisk {
		if spec.Scenarios > math.MaxInt32 {
			return fmt.Errorf("risk scenarios %d exceeds %d", spec.Scenarios, math.MaxInt32)
		}
		if spec.Obligors == 0 {
			spec.Obligors = 100
		}
		if spec.Obligors < 1 {
			return fmt.Errorf("obligors %d must be ≥ 1", spec.Obligors)
		}
		if spec.PD == 0 {
			spec.PD = 0.02
		}
		if !(spec.PD > 0 && spec.PD < 1) {
			return fmt.Errorf("pd %g must lie in (0, 1)", spec.PD)
		}
		if spec.Exposure == 0 {
			spec.Exposure = 100
		}
		if !(spec.Exposure > 0) || math.IsInf(spec.Exposure, 0) {
			return fmt.Errorf("exposure %g must be a finite value > 0", spec.Exposure)
		}
		if spec.BandUnit < 0 || math.IsInf(spec.BandUnit, 0) {
			return fmt.Errorf("band_unit %g must be a finite value ≥ 0", spec.BandUnit)
		}
		// Risk runs on a scalar variance: the MC layer draws its sector
		// gammas from one uniform portfolio definition.
		if spec.Variances != nil {
			return fmt.Errorf("risk jobs take a scalar variance, not per-sector variances")
		}
		if spec.StreamOffset != 0 {
			return fmt.Errorf("risk jobs do not take a stream_offset (the loss pipeline owns its stream positions)")
		}
	}
	return nil
}

// generateOptions maps a validated generate spec onto the facade's
// parallel options. The mapping is total: every workload field of the
// replay tuple is forwarded, nothing else is invented.
func (spec *JobSpec) generateOptions() decwi.ParallelOptions {
	return decwi.ParallelOptions{
		GenerateOptions: decwi.GenerateOptions{
			Scenarios:    spec.Scenarios,
			Sectors:      spec.Sectors,
			Variance:     spec.Variance,
			Variances:    spec.Variances,
			WorkItems:    spec.WorkItems,
			Seed:         spec.Seed,
			StreamOffset: spec.StreamOffset,
		},
		Workers:        spec.Workers,
		ChunkWorkItems: spec.ChunkWorkItems,
	}
}

// JobStatus is the externally visible job record (the GET /v1/jobs/{id}
// body).
type JobStatus struct {
	ID     string   `json:"id"`
	Kind   JobKind  `json:"kind"`
	State  JobState `json:"state"`
	Tenant string   `json:"tenant"`
	Config int      `json:"config"`
	Seed   uint64   `json:"seed"`
	Error  string   `json:"error,omitempty"`
	// Bytes and SHA256 describe the result payload (terminal done jobs
	// only). The digest lets a replay check compare two submissions
	// without downloading either payload.
	Bytes  int    `json:"bytes,omitempty"`
	SHA256 string `json:"sha256,omitempty"`
	// Cached marks a job answered from the deterministic result cache
	// (no engine run); Coalesced marks one that shared another
	// submission's in-flight execution (singleflight dedup).
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// QueueWaitUS and ServiceUS are the same quantities the
	// serve.queue-wait-us / serve.service-us histograms aggregate.
	QueueWaitUS int64 `json:"queue_wait_us"`
	ServiceUS   int64 `json:"service_us,omitempty"`
	// TraceID is the job's flight-recorder trace id (adopted from the
	// submission's traceparent header, or minted at admission; empty
	// with tracing off). Lane names the admission lane that served the
	// job: "cache-hit", "coalesced" or "queued".
	TraceID string `json:"trace_id,omitempty"`
	Lane    string `json:"lane,omitempty"`
	// Per-phase wall-clock timestamps (Unix microseconds): admission,
	// queued→running, and the terminal transition. Started/Finished are
	// zero until the job reaches the respective phase — a client can
	// compute its own phase breakdown without scraping the trace.
	AdmittedUnixUS int64 `json:"admitted_unix_us,omitempty"`
	StartedUnixUS  int64 `json:"started_unix_us,omitempty"`
	FinishedUnixUS int64 `json:"finished_unix_us,omitempty"`
	// Generate-only scheduler echo.
	RejectionRate float64 `json:"rejection_rate,omitempty"`
	Chunks        int     `json:"chunks,omitempty"`
	Steals        int     `json:"steals,omitempty"`
	// Risk-only report.
	Risk *decwi.RiskReport `json:"risk,omitempty"`
}

// encodeFloat32LE renders values as the wire/file format shared with
// decwi-gammagen: little-endian IEEE-754 float32, device layout. The
// replay-determinism contract is stated over exactly these bytes.
func encodeFloat32LE(values []float32) []byte {
	out := make([]byte, 4*len(values))
	for i, v := range values {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// digest is the hex SHA-256 the status JSON and the X-Decwi-Sha256
// response header carry.
func digest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// result is a completed job's payload held in its wire form: the
// little-endian float32 bytes of a generate run's device-layout buffer
// (encoded once, at completion, after which the []float32 is dropped)
// or a risk run's report JSON. The SHA-256 of those bytes is fixed at
// the same moment. A result is immutable after newValuesResult or
// newRawResult returns, so the cache, every coalesced job and every
// Payload caller share the one raw slice, and a download is one Write
// of it.
type result struct {
	raw []byte // wire bytes, never modified after construction
	sha string // hex SHA-256 of raw
}

// newValuesResult encodes a generate run's device-layout buffer into
// its wire bytes and fixes their digest.
func newValuesResult(values []float32) *result {
	return newRawResult(encodeFloat32LE(values))
}

// newRawResult wraps an already-encoded payload (risk JSON, test
// hooks) and fixes its wire digest.
func newRawResult(raw []byte) *result {
	return &result{raw: raw, sha: digest(raw)}
}

// size is the wire length in bytes (the Content-Length of a download).
func (r *result) size() int {
	if r == nil {
		return 0
	}
	return len(r.raw)
}

// cacheKey is the canonical content address of the spec's replay
// tuple: the hex SHA-256 of a length/width-explicit encoding of every
// payload-determining field. It must be computed on a VALIDATED spec —
// Validate canonicalizes the defaultable fields (seed 0 → 1, sectors
// 0 → 1, risk portfolio defaults), so two submissions naming the same
// effective tuple digest identically. Scheduling fields (Workers,
// ChunkWorkItems) are deliberately excluded: the engine's
// sequential-equivalence tentpole proves the bytes are invariant under
// every scheduling choice, so a 1-worker and a 16-worker submission of
// the same workload share one cache line. Tenant and TimeoutMS are
// excluded too — they scope accounting, not bytes.
func (spec *JobSpec) cacheKey() string {
	h := sha256.New()
	var scratch [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	putF64 := func(f float64) { putU64(math.Float64bits(f)) }
	putU64(uint64(len(spec.Kind)))
	io.WriteString(h, string(spec.Kind))
	putU64(uint64(spec.Config))
	putU64(spec.Seed)
	putU64(uint64(spec.Scenarios))
	putU64(uint64(spec.Sectors))
	putF64(spec.Variance)
	putU64(uint64(len(spec.Variances)))
	for _, v := range spec.Variances {
		putF64(v)
	}
	putU64(uint64(spec.WorkItems))
	putU64(spec.StreamOffset)
	if spec.Kind == KindRisk {
		putU64(uint64(spec.Obligors))
		putF64(spec.PD)
		putF64(spec.Exposure)
		putF64(spec.BandUnit)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// retryAfter is the hint returned with 429/503 responses.
const retryAfter = 1 * time.Second
