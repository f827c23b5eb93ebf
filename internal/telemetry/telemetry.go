// Package telemetry is the observability substrate of the decoupled
// work-item stack: a low-overhead event recorder plus atomic counters,
// threaded through internal/hls (stream blocking, dataflow process
// lifecycle), internal/core (per-work-item divergence and retry
// accounting), internal/fpga (co-simulation cycle accounting, memory
// bursts) and internal/opencl (command-queue spans).
//
// The design goals, in order:
//
//  1. Zero cost when disabled. Every entry point is a method on a
//     pointer receiver that tolerates a nil receiver, so instrumented
//     hot paths pay one predictable nil-check branch and nothing else.
//     A nil *Recorder (and the nil *Track / *Counter handles it gives
//     out) IS the no-op implementation.
//  2. Bounded memory when enabled. Events land in a fixed-size ring
//     buffer that overwrites the oldest entries; counters are a flat
//     registry of atomic int64s. A run can emit billions of events
//     without growing the heap.
//  3. Two export paths (see chrome.go and report.go): a Chrome
//     trace_event JSON file loadable in chrome://tracing or Perfetto,
//     and a plain-text stall-attribution report that ranks where the
//     cycles went.
//
// Clock domains. The stack mixes three notions of time: wall-clock
// (goroutine-level engine activity, queue workers), simulated clock
// cycles (the fpga co-simulation, per-pipeline cycle counters) and the
// OpenCL queue's simulated device clock. Each Track declares its Domain
// and the exporters keep the domains on separate trace processes so
// Perfetto never tries to align a cycle count with a microsecond.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Domain is the clock domain a track's timestamps live in.
type Domain uint8

const (
	// Wall timestamps are microseconds since Recorder creation.
	Wall Domain = iota
	// Cycles timestamps are simulated clock cycles (cosim, pipelines).
	Cycles
	// SimClock timestamps are microseconds on the OpenCL queue's
	// simulated device timeline.
	SimClock
)

// String returns the exporter-facing domain name.
func (d Domain) String() string {
	switch d {
	case Wall:
		return "wall clock (us)"
	case Cycles:
		return "simulated cycles"
	case SimClock:
		return "simulated device clock (us)"
	default:
		return "unknown domain"
	}
}

// EventKind enumerates the typed events of the stack.
type EventKind uint8

const (
	// EvStreamPush is a sampled hls::stream write (arg: writes so far).
	EvStreamPush EventKind = iota
	// EvStreamPop is a sampled hls::stream read (arg: reads so far).
	EvStreamPop
	// EvStreamBlock is a span: producer blocked on a full FIFO.
	EvStreamBlock
	// EvStreamStarve is a span: consumer blocked on an empty FIFO.
	EvStreamStarve
	// EvProcess is a span: one dataflow process from start to finish.
	EvProcess
	// EvKernel is a span: kernel start..finish (engine or queue level).
	EvKernel
	// EvSector is a span: one SECLOOP sector of the gamma MAINLOOP
	// (arg: loop trips).
	EvSector
	// EvIIStall is a span: pipeline initiation-interval bubble — cycles
	// in which a pipeline could not start an iteration (FIFO
	// backpressure in the co-simulation).
	EvIIStall
	// EvRetry is an instant: rejection-loop retry accounting
	// (arg: retry cycles attributed).
	EvRetry
	// EvMemBurst is a span: one memory-controller burst transaction
	// (arg: payload values).
	EvMemBurst
	// EvEnqueue is an instant: a command entered an OpenCL queue.
	EvEnqueue
	// EvCommand is a span: an OpenCL command executing on its queue.
	EvCommand
	// EvChunk is a span: one work-item chunk executed by a parallel
	// scheduler worker (arg: the chunk index; label: "steal" when the
	// chunk ran on a worker other than its static owner).
	EvChunk
)

// String returns the trace-facing event name.
func (k EventKind) String() string {
	switch k {
	case EvStreamPush:
		return "stream.push"
	case EvStreamPop:
		return "stream.pop"
	case EvStreamBlock:
		return "stream.block(full)"
	case EvStreamStarve:
		return "stream.starve(empty)"
	case EvProcess:
		return "process"
	case EvKernel:
		return "kernel"
	case EvSector:
		return "sector"
	case EvIIStall:
		return "ii-stall"
	case EvRetry:
		return "rejection-retry"
	case EvMemBurst:
		return "mem-burst"
	case EvEnqueue:
		return "enqueue"
	case EvCommand:
		return "command"
	case EvChunk:
		return "parallel.chunk"
	default:
		return "event"
	}
}

// Phase mirrors the Chrome trace_event phase of a record.
type Phase byte

const (
	// PhaseInstant marks a point event ('i' in trace_event).
	PhaseInstant Phase = 'i'
	// PhaseSpan marks a complete event with duration ('X').
	PhaseSpan Phase = 'X'
)

// Event is one ring-buffer record. TS and Dur are in the track's clock
// domain. Label is an interned-string id (see Recorder.Intern) used by
// the queue instrumentation to carry command names; 0 means "use the
// Kind name".
type Event struct {
	Kind  EventKind
	Phase Phase
	Track int32
	Label int32
	TS    int64
	Dur   int64
	Arg   int64
}

// Track is a named event lane (one trace_event thread). The zero id on
// a nil Track makes every emit a no-op.
type Track struct {
	r      *Recorder
	id     int32
	name   string
	domain Domain
}

// Name returns the track name ("" on nil).
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Instant records a point event at ts.
func (t *Track) Instant(k EventKind, ts, arg int64) {
	if t == nil {
		return
	}
	t.r.emit(Event{Kind: k, Phase: PhaseInstant, Track: t.id, TS: ts, Arg: arg})
}

// Span records a complete event covering [start, end).
func (t *Track) Span(k EventKind, start, end, arg int64) {
	if t == nil {
		return
	}
	t.r.emit(Event{Kind: k, Phase: PhaseSpan, Track: t.id, TS: start, Dur: end - start, Arg: arg})
}

// SpanL is Span with an interned label overriding the kind name.
func (t *Track) SpanL(k EventKind, label int32, start, end, arg int64) {
	if t == nil {
		return
	}
	t.r.emit(Event{Kind: k, Phase: PhaseSpan, Track: t.id, Label: label, TS: start, Dur: end - start, Arg: arg})
}

// InstantL is Instant with an interned label.
func (t *Track) InstantL(k EventKind, label int32, ts, arg int64) {
	if t == nil {
		return
	}
	t.r.emit(Event{Kind: k, Phase: PhaseInstant, Track: t.id, Label: label, TS: ts, Arg: arg})
}

// Now returns the current timestamp in the track's domain for the
// domains the recorder can clock itself (Wall); cycle-domain callers
// pass their own cycle counts. Returns 0 on nil.
func (t *Track) Now() int64 {
	if t == nil {
		return 0
	}
	return t.r.NowMicros()
}

// Counter is a named atomic counter. Handles are obtained once from
// Recorder.Counter and then Add'ed on hot paths; a nil *Counter
// swallows everything.
type Counter struct {
	name string
	unit string // "cycles", "ns", "events", "values"
	desc string // human attribution line for the stall report
	v    atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Set overwrites the counter (used for end-of-run absolute values).
func (c *Counter) Set(v int64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the counter name ("" on nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Unit returns the counter unit ("" on nil).
func (c *Counter) Unit() string {
	if c == nil {
		return ""
	}
	return c.unit
}

// Desc returns the attribution description ("" on nil).
func (c *Counter) Desc() string {
	if c == nil {
		return ""
	}
	return c.desc
}

// Recorder owns the ring buffer, the track and counter registries and
// the interned label table. All methods are safe for concurrent use and
// tolerate a nil receiver, which is the disabled mode.
type Recorder struct {
	start time.Time

	mu      sync.Mutex
	ring    []Event
	emitted uint64 // total events ever emitted; ring[(emitted-1)%cap] is newest

	tmu    sync.Mutex
	tracks []*Track

	cmu      sync.Mutex
	counters map[string]*Counter
	corder   []string

	gmu    sync.Mutex
	gauges map[string]*Gauge
	gorder []string

	hmu    sync.Mutex
	hists  map[string]*Histogram
	horder []string

	lmu    sync.Mutex
	labels map[string]int32
	lnames []string // index = label id - 1
}

// DefaultRingCap is the event ring capacity of the tracing CLIs.
const DefaultRingCap = 1 << 16

// New returns an enabled recorder with an event ring of capacity n.
// n <= 0 builds a metrics-only recorder: counters, gauges and
// histograms record, but there is no ring and Track returns the nil
// no-op track, so instrumented code emits no events. A nil *Recorder
// is the no-op recorder; there is deliberately no constructor for it.
func New(n int) *Recorder {
	var ring []Event
	if n > 0 {
		ring = make([]Event, n)
	}
	return &Recorder{
		start:    time.Now(),
		ring:     ring,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		labels:   make(map[string]int32),
	}
}

// Enabled reports whether r records anything: true for every non-nil
// recorder, metrics-only ones included.
func (r *Recorder) Enabled() bool { return r != nil }

// NowMicros returns wall-clock microseconds since the recorder started
// (0 on nil).
func (r *Recorder) NowMicros() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.start).Microseconds()
}

// Track registers (or creates) a named event lane in the given domain.
// Returns nil — the no-op track — on a nil or metrics-only recorder.
func (r *Recorder) Track(name string, d Domain) *Track {
	if r == nil || len(r.ring) == 0 {
		return nil
	}
	r.tmu.Lock()
	defer r.tmu.Unlock()
	for _, t := range r.tracks {
		if t.name == name && t.domain == d {
			return t
		}
	}
	t := &Track{r: r, id: int32(len(r.tracks) + 1), name: name, domain: d}
	r.tracks = append(r.tracks, t)
	return t
}

// Counter returns the named counter, creating it with the given unit
// and attribution description on first use. Returns nil — the no-op
// counter — on a nil recorder.
func (r *Recorder) Counter(name, unit, desc string) *Counter {
	if r == nil {
		return nil
	}
	r.cmu.Lock()
	defer r.cmu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, unit: unit, desc: desc}
	r.counters[name] = c
	r.corder = append(r.corder, name)
	return c
}

// Intern maps a label string to a stable positive id for use in
// Event.Label. Returns 0 on a nil recorder or empty string.
func (r *Recorder) Intern(s string) int32 {
	if r == nil || s == "" {
		return 0
	}
	r.lmu.Lock()
	defer r.lmu.Unlock()
	if id, ok := r.labels[s]; ok {
		return id
	}
	r.lnames = append(r.lnames, s)
	id := int32(len(r.lnames))
	r.labels[s] = id
	return id
}

// labelName resolves an interned id ("" for 0 or out of range).
func (r *Recorder) labelName(id int32) string {
	if r == nil || id <= 0 {
		return ""
	}
	r.lmu.Lock()
	defer r.lmu.Unlock()
	if int(id) > len(r.lnames) {
		return ""
	}
	return r.lnames[id-1]
}

// emit appends one event, overwriting the oldest record when the ring
// is full. Instrumentation is expected to go through Track methods,
// which a metrics-only recorder never hands out.
func (r *Recorder) emit(ev Event) {
	if len(r.ring) == 0 {
		return
	}
	r.mu.Lock()
	r.ring[r.emitted%uint64(len(r.ring))] = ev
	r.emitted++
	r.mu.Unlock()
}

// Events returns a snapshot of the retained events in emission order
// (oldest first). On a nil or metrics-only recorder it returns nil.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.ring) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.emitted
	capN := uint64(len(r.ring))
	if n <= capN {
		return append([]Event(nil), r.ring[:n]...)
	}
	out := make([]Event, 0, capN)
	first := n % capN // oldest retained slot
	out = append(out, r.ring[first:]...)
	out = append(out, r.ring[:first]...)
	return out
}

// Emitted returns the total number of events ever emitted, and how many
// of those the ring has since overwritten.
func (r *Recorder) Emitted() (total, dropped uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	capN := uint64(len(r.ring))
	if r.emitted > capN {
		return r.emitted, r.emitted - capN
	}
	return r.emitted, 0
}

// Counters returns the registered counters in creation order.
func (r *Recorder) Counters() []*Counter {
	if r == nil {
		return nil
	}
	r.cmu.Lock()
	defer r.cmu.Unlock()
	out := make([]*Counter, 0, len(r.corder))
	for _, name := range r.corder {
		out = append(out, r.counters[name])
	}
	return out
}

// Tracks returns the registered tracks in creation order.
func (r *Recorder) Tracks() []*Track {
	if r == nil {
		return nil
	}
	r.tmu.Lock()
	defer r.tmu.Unlock()
	return append([]*Track(nil), r.tracks...)
}

// trackByID resolves a track id (nil for unknown ids).
func (r *Recorder) trackByID(id int32) *Track {
	if r == nil || id <= 0 {
		return nil
	}
	r.tmu.Lock()
	defer r.tmu.Unlock()
	if int(id) > len(r.tracks) {
		return nil
	}
	return r.tracks[id-1]
}
