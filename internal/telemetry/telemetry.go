// Package telemetry is the observability substrate of the decoupled
// work-item stack: atomic counters, gauges and histograms threaded
// through internal/hls (stream blocking, dataflow process lifecycle),
// internal/core (per-work-item divergence and retry accounting),
// internal/fpga (co-simulation cycle accounting, memory bursts) and
// internal/opencl (command-queue accounting), plus the run trace those
// layers record their spans into.
//
// The design goals, in order:
//
//  1. Zero cost when disabled. Every entry point is a method on a
//     pointer receiver that tolerates a nil receiver, so instrumented
//     hot paths pay one predictable nil-check branch and nothing else.
//     A nil *Recorder (and the nil *Counter / *Gauge / *Histogram
//     handles it gives out) IS the no-op implementation.
//  2. Bounded memory when enabled. Counters are a flat registry of
//     atomic int64s; a recorder built with New(n), n > 0, carries a run
//     trace (a flight.Trace) that keeps at most n spans and counts the
//     rest as dropped. New(0) carries none, so the kernel path records
//     no span at all.
//  3. One span model. The run trace's spans carry their own track and
//     clock (wall, simulated cycles, simulated device time) and render
//     through flight's Chrome exporter, the same one a serve-path job
//     trace uses; report.go renders the plain-text stall-attribution
//     report that ranks where the cycles went.
package telemetry

import (
	"sync"
	"sync/atomic"

	"github.com/decwi/decwi/internal/telemetry/flight"
)

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

// Recorder owns the counter, gauge and histogram registries and the
// optional run trace. All methods are safe for concurrent use and
// tolerate a nil receiver, which is the disabled mode.
type Recorder struct {
	trace *flight.Trace

	cmu      sync.Mutex
	counters map[string]*Counter
	corder   []string

	gmu    sync.Mutex
	gauges map[string]*Gauge
	gorder []string

	hmu    sync.Mutex
	hists  map[string]*Histogram
	horder []string
}

// New returns an enabled recorder whose run trace keeps at most n
// spans. n <= 0 builds a metrics-only recorder: counters, gauges and
// histograms record, but Trace returns nil, so instrumented code
// records no span. A nil *Recorder is the no-op recorder; there is
// deliberately no constructor for it.
func New(n int) *Recorder {
	r := &Recorder{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	if n > 0 {
		r.trace = flight.NewTrace("run", n)
	}
	return r
}

// Enabled reports whether r records anything: true for every non-nil
// recorder, metrics-only ones included.
func (r *Recorder) Enabled() bool { return r != nil }

// Trace returns the run trace the kernel path records its spans into
// (nil on a nil or metrics-only recorder).
func (r *Recorder) Trace() *flight.Trace {
	if r == nil {
		return nil
	}
	return r.trace
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
