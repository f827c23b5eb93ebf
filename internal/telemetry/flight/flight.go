// Package flight is the per-job distributed-tracing layer of the serve
// path: a bounded, always-on "flight recorder" of recent job timelines.
//
// Where internal/telemetry answers aggregate questions (p99 moved, the
// queue-wait histogram fattened), this package answers the per-request
// one: *why did this job take 80 ms*. Every submission owns a Trace — a
// tree of named spans covering admission → validation → quota → cache
// lookup → dedup decision → queue wait → engine run → digest, with the
// engine span linked down into the work-stealing scheduler's per-chunk
// execution — and the Recorder retains the last N traces in a ring plus
// a pinned FIFO of the ones worth keeping past the ring (slow or
// failed jobs), so the interesting timeline is still there when someone
// comes looking after the fact.
//
// The same span record carries the kernel path's timelines: a traced
// kernel run records into a standalone run trace (NewTrace, reached
// through telemetry.Recorder.Trace), whose spans name their track and
// clock — wall time, simulated cycles or the simulated device clock —
// and render through the one Chrome exporter in chrome.go.
//
// The same non-perturbation contract as the rest of the telemetry
// stack applies: a nil *Recorder and a nil *Trace are the disabled
// implementation. Every method is nil-receiver safe and free of side
// effects on the nil path, so tracing-off code carries only a
// predictable-branch cost on the hot path.
//
// Trace identity is W3C-trace-context shaped: a submission may carry a
// `traceparent` header, whose 16-byte trace-id this package parses and
// adopts; otherwise a fresh random trace-id is minted at admission. The
// span tree itself stays process-local (there is no wire propagation of
// span ids yet — the multi-process tier will add that), but adopting
// the caller's trace-id means a client can grep one id across its own
// logs, the server's structured logs, and /debug/jobs.
package flight

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// SpanID names one span within one trace. 0 is "no span": the zero
// value parents a span at the root and is what nil-trace Begin returns,
// so disabled tracing threads zeros around harmlessly.
type SpanID int32

// Span is one timed operation in a trace. StartUS and EndUS are in the
// span's Clock: on the default wall clock they are microseconds
// relative to the trace start (so a whole trace is compact and
// offset-free); EndUS is -1 while the span is open. Track names the
// timeline the span belongs to ("engine worker 1", "GammaRNG[3]"); ""
// is the serve path's own span tree.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent"` // 0 = root-level
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"` // e.g. "hit", "coalesced onto j-00000007"
	Arg    int64  `json:"arg,omitempty"`    // span-defined quantity (bytes, chunk index, ...)
	Track  string `json:"track,omitempty"`
	Clock  Clock  `json:"clock,omitempty"`

	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"` // -1 while open
}

// Clock is the time base of a span's StartUS/EndUS. The stack mixes
// three: goroutine-level wall time, the co-simulation's and pipelines'
// simulated clock cycles, and the OpenCL queue's simulated device
// timeline. A child span shares its parent's clock, and the Chrome
// renderer keeps each clock on its own trace process so a cycle count
// is never drawn against a microsecond.
type Clock string

const (
	// WallClock stamps are microseconds since the trace started.
	WallClock Clock = ""
	// CycleClock stamps are simulated clock cycles.
	CycleClock Clock = "cycles"
	// DeviceClock stamps are microseconds on the simulated OpenCL
	// device timeline.
	DeviceClock Clock = "device-us"
)

// clocks lists every Clock with its Chrome process name; the index + 1
// is the clock's trace process id.
var clocks = [...]struct {
	clock Clock
	name  string
}{
	{WallClock, "wall clock (us)"},
	{CycleClock, "simulated cycles"},
	{DeviceClock, "simulated device clock (us)"},
}

// clockIndex returns c's index in clocks, -1 for an unknown clock.
func clockIndex(c Clock) int {
	for i := range clocks {
		if clocks[i].clock == c {
			return i
		}
	}
	return -1
}

// maxSpans caps one job trace's span slice: a single job touching every
// engine chunk of a large run must not grow a timeline without bound.
// Beyond the cap, spans are counted (Dropped) instead of stored.
const maxSpans = 1024

// Trace is one job's timeline. All mutable state is guarded by mu;
// every method is nil-receiver safe (a nil *Trace is tracing-off).
type Trace struct {
	rec    *Recorder // owning recorder; nil for a NewTrace run trace
	budget int       // span cap (maxSpans for recorder traces)

	traceID string
	start   time.Time

	mu       sync.Mutex
	jobID    string
	tenant   string
	kind     string
	lane     string
	spans    []Span
	dropped  int
	state    string // "live" until Finish
	errMsg   string
	finished time.Time
	pinned   bool
}

// StateLive is the Trace state before Finish; Finish replaces it with a
// terminal state ("done", "failed", "cancelled", "rejected", ...).
const StateLive = "live"

// NewTrace starts a standalone trace that keeps at most budget spans
// and counts the rest as dropped — the run trace of a traced kernel
// run, which no Recorder retains.
func NewTrace(kind string, budget int) *Trace {
	return &Trace{budget: budget, traceID: NewTraceID(), start: time.Now(), kind: kind, state: StateLive}
}

// now reads the owning recorder's clock (the wall clock for a
// standalone trace).
func (t *Trace) now() time.Time {
	if t.rec == nil {
		return time.Now()
	}
	return t.rec.now()
}

// Now returns the current WallClock stamp: microseconds since the
// trace started (0 on nil).
func (t *Trace) Now() int64 {
	if t == nil {
		return 0
	}
	return t.nowUS()
}

// nowUS is Now past the nil check, kept apart so that check inlines.
func (t *Trace) nowUS() int64 { return t.rel(t.now()) }

// TraceID returns the W3C-shaped 32-hex-digit trace id ("" on nil).
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// SetJob attaches the job id (once minted) and indexes the trace under
// it, so GET /debug/jobs/{job-id} resolves as well as the trace id.
func (t *Trace) SetJob(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.jobID = id
	t.mu.Unlock()
	t.rec.index(id, t)
}

// SetTenant records the (post-validation, canonical) tenant label.
func (t *Trace) SetTenant(tenant string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tenant = tenant
	t.mu.Unlock()
}

// SetLane records which admission lane served the job
// ("cache-hit", "coalesced", "queued").
func (t *Trace) SetLane(lane string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lane = lane
	t.mu.Unlock()
}

// rel converts an absolute time to trace-relative microseconds,
// clamping to 0 so a caller-measured timestamp fractionally before the
// trace start (clock granularity) cannot produce a negative offset.
func (t *Trace) rel(at time.Time) int64 {
	us := at.Sub(t.start).Microseconds()
	if us < 0 {
		us = 0
	}
	return us
}

// Begin opens a span under parent (0 = root) and returns its id. The
// caller closes it with End/EndDetail; spans left open are closed by
// Finish. On a nil trace Begin returns 0, which End ignores. Begin on a
// finished trace also returns 0: a terminal trace must never carry an
// open span (the serve layer hits this when a cancelled leader's trace
// outlives its shared engine run — externally-timed Add spans are still
// accepted, open ones are not).
func (t *Trace) Begin(name string, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateLive {
		return 0
	}
	return t.addLocked(Span{
		Parent: parent, Name: name,
		StartUS: t.rel(now), EndUS: -1,
	})
}

// addLocked appends a span under the cap (caller holds t.mu) and
// assigns its id. IDs are 1-based and strictly ascending — the
// validation in CheckTraceJSON leans on that.
func (t *Trace) addLocked(s Span) SpanID {
	if len(t.spans) >= t.budget {
		t.dropped++
		return 0
	}
	s.ID = SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// End closes the span at the current time. Unknown or zero ids are
// ignored (they are what nil-trace Begins return).
func (t *Trace) End(id SpanID) { t.EndDetail(id, "", 0) }

// EndDetail closes the span and attaches a detail string and argument
// (e.g. "hit" + payload bytes on a cache-lookup span). Closing an
// already-closed span is a no-op.
func (t *Trace) EndDetail(id SpanID, detail string, arg int64) {
	if t == nil || id <= 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) > len(t.spans) {
		return
	}
	s := &t.spans[id-1]
	if s.EndUS >= 0 {
		return
	}
	s.EndUS = t.rel(now)
	if detail != "" {
		s.Detail = detail
	}
	if arg != 0 {
		s.Arg = arg
	}
}

// Add records an externally-timed closed span — the bridge for
// subsystems that already measure their own durations (the parallel
// scheduler's per-chunk wall times). start/end are absolute; end is
// clamped to start so rounding can never produce a negative duration.
func (t *Trace) Add(name string, parent SpanID, start, end time.Time, detail string, arg int64) SpanID {
	if t == nil {
		return 0
	}
	return t.put(Span{
		Parent: parent, Name: name, Detail: detail, Arg: arg,
		StartUS: t.rel(start), EndUS: t.rel(end),
	})
}

// Put records a closed span whose StartUS and EndUS are already in
// s.Clock's units (WallClock: Now stamps) — the bridge for the kernel
// path, whose cycle and device-clock stamps are not wall times. The id
// is assigned here; a negative start clamps to 0 and end to start.
func (t *Trace) Put(s Span) SpanID {
	if t == nil {
		return 0
	}
	return t.put(s)
}

// put is Put past the nil check, kept apart so that check inlines into
// the kernel path's call sites.
func (t *Trace) put(s Span) SpanID {
	if s.StartUS < 0 {
		s.StartUS = 0
	}
	if s.EndUS < s.StartUS {
		s.EndUS = s.StartUS
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(s)
}

// Event records an instantaneous point (a zero-duration span).
func (t *Trace) Event(name string, parent SpanID, detail string) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	us := t.rel(now)
	t.addLocked(Span{Parent: parent, Name: name, Detail: detail, StartUS: us, EndUS: us})
}

// SpanCount returns stored + dropped spans (the serve layer's
// serve.trace.spans counter input).
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + t.dropped
}

// Finish seals the trace with a terminal state ("done", "failed",
// "cancelled", "rejected"). Any still-open span is closed at the finish
// time, so a terminal trace never carries an open span (CheckTraceJSON
// enforces exactly that). The recorder then decides pinning: failed
// traces and traces at or over the slow threshold survive ring
// eviction. Finishing twice is a no-op.
func (t *Trace) Finish(state, errMsg string) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	if t.state != StateLive {
		t.mu.Unlock()
		return
	}
	t.state = state
	t.errMsg = errMsg
	t.finished = now
	endUS := t.rel(now)
	for i := range t.spans {
		if t.spans[i].EndUS < 0 {
			t.spans[i].EndUS = endUS
		}
	}
	dur := now.Sub(t.start)
	t.mu.Unlock()
	t.rec.noteFinish(t, state, dur)
}

// Snapshot renders the trace as its JSON wire shape (the zero value
// on nil).
func (t *Trace) Snapshot() TraceJSON {
	if t == nil {
		return TraceJSON{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceJSON{
		TraceID:     t.traceID,
		JobID:       t.jobID,
		Tenant:      t.tenant,
		Kind:        t.kind,
		Lane:        t.lane,
		State:       t.state,
		Error:       t.errMsg,
		StartUnixUS: t.start.UnixMicro(),
		DurationUS:  -1,
		Dropped:     t.dropped,
		Pinned:      t.pinned,
		Spans:       append([]Span(nil), t.spans...),
	}
	if !t.finished.IsZero() {
		out.DurationUS = t.finished.Sub(t.start).Microseconds()
	}
	return out
}

// summary renders the trace's /debug/jobs list entry.
func (t *Trace) summary() TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSummary{
		TraceID:     t.traceID,
		JobID:       t.jobID,
		Tenant:      t.tenant,
		Kind:        t.kind,
		Lane:        t.lane,
		State:       t.state,
		Error:       t.errMsg,
		StartUnixUS: t.start.UnixMicro(),
		DurationUS:  -1,
		Spans:       len(t.spans) + t.dropped,
		Pinned:      t.pinned,
	}
	if !t.finished.IsZero() {
		s.DurationUS = t.finished.Sub(t.start).Microseconds()
	}
	return s
}

// TraceJSON is the GET /debug/jobs/{id} body: one complete span tree.
type TraceJSON struct {
	TraceID string `json:"trace_id"`
	JobID   string `json:"job_id,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Lane    string `json:"lane,omitempty"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	// StartUnixUS anchors the trace-relative span times on the wall
	// clock; DurationUS is -1 while the trace is live.
	StartUnixUS int64 `json:"start_unix_us"`
	DurationUS  int64 `json:"duration_us"`
	// Dropped counts spans beyond the per-trace cap (recorded but not
	// stored).
	Dropped int  `json:"dropped_spans,omitempty"`
	Pinned  bool `json:"pinned,omitempty"`

	Spans []Span `json:"spans"`
}

// TraceSummary is one GET /debug/jobs list entry.
type TraceSummary struct {
	TraceID     string `json:"trace_id"`
	JobID       string `json:"job_id,omitempty"`
	Tenant      string `json:"tenant,omitempty"`
	Kind        string `json:"kind,omitempty"`
	Lane        string `json:"lane,omitempty"`
	State       string `json:"state"`
	Error       string `json:"error,omitempty"`
	StartUnixUS int64  `json:"start_unix_us"`
	DurationUS  int64  `json:"duration_us"`
	Spans       int    `json:"spans"`
	Pinned      bool   `json:"pinned,omitempty"`
}

// JobsJSON is the GET /debug/jobs body: retention totals plus the
// retained traces, newest first.
type JobsJSON struct {
	// Recorded counts every trace ever started; Evicted counts the ones
	// retention has already discarded. Recorded − Evicted = len(Jobs).
	Recorded int64 `json:"recorded"`
	Evicted  int64 `json:"evicted"`
	// Pinned is how many of the retained traces are pinned (slow or
	// failed jobs held past ring eviction).
	Pinned int            `json:"pinned"`
	Jobs   []TraceSummary `json:"jobs"`
}

// Stats is the recorder's occupancy snapshot (the serve.trace.* gauge
// inputs).
type Stats struct {
	Recorded int64
	Evicted  int64
	Retained int
	Pinned   int
}

// Recorder retains recent traces: a FIFO ring of the last RingCap
// traces (registered at Start, so live jobs are visible in /debug/jobs
// while they run) plus a FIFO of up to PinCap pinned traces — ones that
// finished failed or at/over the slow threshold — which survive ring
// eviction. A nil *Recorder is the disabled implementation: Start
// returns a nil *Trace and every accessor returns zero values.
type Recorder struct {
	slow time.Duration
	ring int
	pin  int
	now  func() time.Time // injectable clock (package tests)

	mu       sync.Mutex
	order    []*Trace // ring FIFO, oldest first
	pinned   []*Trace // pinned FIFO, oldest first
	inRing   map[*Trace]bool
	inPinned map[*Trace]bool
	byID     map[string]*Trace // trace id and job id → trace
	recorded int64
	evicted  int64
}

// Defaults for New's zero arguments.
const (
	DefaultRingCap       = 256
	DefaultPinCap        = 64
	DefaultSlowThreshold = 250 * time.Millisecond
)

// New builds a flight recorder retaining the last ringCap traces plus
// up to pinCap pinned (failed or ≥ slow) traces. Zero arguments select
// the defaults. Callers that want tracing off pass around a nil
// *Recorder instead — every method supports it.
func New(ringCap, pinCap int, slow time.Duration) *Recorder {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	if pinCap <= 0 {
		pinCap = DefaultPinCap
	}
	if slow <= 0 {
		slow = DefaultSlowThreshold
	}
	return &Recorder{
		slow: slow, ring: ringCap, pin: pinCap, now: time.Now,
		inRing:   map[*Trace]bool{},
		inPinned: map[*Trace]bool{},
		byID:     map[string]*Trace{},
	}
}

// Start begins a trace. traceID is adopted when it is a well-formed
// 32-hex-digit W3C trace id (use TraceIDFrom on a raw traceparent
// header); anything else is replaced by a freshly minted id. The trace
// enters the ring immediately — a job is visible in /debug/jobs while
// it runs, not only after it finishes.
func (r *Recorder) Start(traceID, kind string) *Trace {
	if r == nil {
		return nil
	}
	if !validTraceID(traceID) {
		traceID = NewTraceID()
	}
	t := &Trace{
		rec:     r,
		budget:  maxSpans,
		traceID: traceID,
		start:   r.now(),
		kind:    kind,
		state:   StateLive,
	}
	r.mu.Lock()
	r.recorded++
	r.order = append(r.order, t)
	r.inRing[t] = true
	r.byID[traceID] = t
	for len(r.order) > r.ring {
		old := r.order[0]
		r.order = r.order[1:]
		delete(r.inRing, old)
		r.dropIfUnreferencedLocked(old)
	}
	r.mu.Unlock()
	return t
}

// index registers an additional lookup key (the job id) for t.
func (r *Recorder) index(key string, t *Trace) {
	if r == nil || key == "" {
		return
	}
	r.mu.Lock()
	// Only index while the trace is still retained — SetJob racing an
	// eviction must not resurrect a dropped trace in the id map.
	if r.inRing[t] || r.inPinned[t] {
		r.byID[key] = t
	}
	r.mu.Unlock()
}

// noteFinish applies the pin policy when a trace seals: failed traces
// and traces at/over the slow threshold are pinned, surviving ring
// eviction until the pinned FIFO itself overflows.
func (r *Recorder) noteFinish(t *Trace, state string, dur time.Duration) {
	if r == nil {
		return
	}
	pin := state == "failed" || dur >= r.slow
	if !pin {
		return
	}
	r.mu.Lock()
	// Pin only traces still retained: a trace that outlived the ring
	// before finishing (possible under churn) is already gone, and
	// re-adding it would corrupt the eviction bookkeeping.
	if r.inRing[t] && !r.inPinned[t] {
		t.mu.Lock()
		t.pinned = true
		t.mu.Unlock()
		r.pinned = append(r.pinned, t)
		r.inPinned[t] = true
		for len(r.pinned) > r.pin {
			old := r.pinned[0]
			r.pinned = r.pinned[1:]
			delete(r.inPinned, old)
			old.mu.Lock()
			old.pinned = false
			old.mu.Unlock()
			r.dropIfUnreferencedLocked(old)
		}
	}
	r.mu.Unlock()
}

// dropIfUnreferencedLocked removes t from the id map once neither the
// ring nor the pinned FIFO holds it (caller holds r.mu).
func (r *Recorder) dropIfUnreferencedLocked(t *Trace) {
	if r.inRing[t] || r.inPinned[t] {
		return
	}
	r.evicted++
	if r.byID[t.traceID] == t {
		delete(r.byID, t.traceID)
	}
	t.mu.Lock()
	jobID := t.jobID
	t.mu.Unlock()
	if jobID != "" && r.byID[jobID] == t {
		delete(r.byID, jobID)
	}
}

// Get returns the span tree for a job id or trace id.
func (r *Recorder) Get(id string) (TraceJSON, bool) {
	if r == nil {
		return TraceJSON{}, false
	}
	r.mu.Lock()
	t := r.byID[id]
	r.mu.Unlock()
	if t == nil {
		return TraceJSON{}, false
	}
	return t.Snapshot(), true
}

// Jobs returns the /debug/jobs listing: every retained trace (ring ∪
// pinned), newest first, with retention totals.
func (r *Recorder) Jobs() JobsJSON {
	if r == nil {
		return JobsJSON{Jobs: []TraceSummary{}}
	}
	r.mu.Lock()
	traces := make([]*Trace, 0, len(r.order)+len(r.pinned))
	// Pinned-but-rotated-out traces first (they are the oldest), then
	// the ring in order; dedup the overlap (a pinned trace still in the
	// ring appears once).
	for _, t := range r.pinned {
		if !r.inRing[t] {
			traces = append(traces, t)
		}
	}
	traces = append(traces, r.order...)
	out := JobsJSON{
		Recorded: r.recorded,
		Evicted:  r.evicted,
		Pinned:   len(r.pinned),
		Jobs:     make([]TraceSummary, 0, len(traces)),
	}
	// Newest first: reverse iteration over oldest-first accumulation.
	// Summaries are built while r.mu is still held (lock order r.mu →
	// t.mu, same as noteFinish) so the header totals and the per-trace
	// pin flags are one consistent snapshot — a pin landing between the
	// two would otherwise make the listing self-inconsistent.
	for i := len(traces) - 1; i >= 0; i-- {
		out.Jobs = append(out.Jobs, traces[i].summary())
	}
	r.mu.Unlock()
	return out
}

// Stats snapshots the retention totals (gauge/counter feed).
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	retained := len(r.order)
	for _, t := range r.pinned {
		if !r.inRing[t] {
			retained++
		}
	}
	return Stats{
		Recorded: r.recorded,
		Evicted:  r.evicted,
		Retained: retained,
		Pinned:   len(r.pinned),
	}
}

// NewTraceID mints a random 16-byte trace id in lowercase hex — the
// W3C trace-context format. crypto/rand never fails on the supported
// platforms; a short read would fall back to a fixed id rather than
// panic on a diagnostics path.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000000000000000000000000001"
	}
	return hex.EncodeToString(b[:])
}

// validTraceID reports whether s is a well-formed W3C trace id:
// 32 lowercase hex digits, not all zero.
func validTraceID(s string) bool {
	if len(s) != 32 {
		return false
	}
	zero := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// TraceIDFrom extracts the trace id from a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"). It
// returns "" when the header is absent or malformed — the caller then
// mints a fresh id. Only version 00 is parsed; an unknown version is
// treated as malformed (the spec says to accept future versions, but a
// diagnostics plane prefers a fresh id over adopting bytes it cannot
// vouch for).
func TraceIDFrom(traceparent string) string {
	// 2 (version) + 1 + 32 (trace id) + 1 + 16 (parent id) + 1 + 2 (flags)
	if len(traceparent) != 55 {
		return ""
	}
	if traceparent[0] != '0' || traceparent[1] != '0' ||
		traceparent[2] != '-' || traceparent[35] != '-' || traceparent[52] != '-' {
		return ""
	}
	id := traceparent[3:35]
	if !validTraceID(id) {
		return ""
	}
	for i := 36; i < 52; i++ {
		if !isHex(traceparent[i]) {
			return ""
		}
	}
	for i := 53; i < 55; i++ {
		if !isHex(traceparent[i]) {
			return ""
		}
	}
	return id
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f'
}
