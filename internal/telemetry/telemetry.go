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
//  2. Bounded memory when enabled. One registry holds every counter,
//     gauge and histogram under one name each, and a name has one kind;
//     a recorder built with New(n), n > 0, carries a run trace (a
//     flight.Trace) that keeps at most n spans and counts the rest as
//     dropped. New(0) carries none, so the kernel path records no span
//     at all.
//  3. Counters only add. A server hands one recorder to every job it
//     runs, so a counter holds the sum over all of them and never goes
//     backwards between scrapes; a per-run figure (a work-item's cycle
//     totals, a run's chunk imbalance) is added, or kept on the run's
//     own result. Gauges are the levels that may be Set.
//  4. One span model. The run trace's spans carry their own track and
//     clock (wall, simulated cycles, simulated device time) and render
//     through flight's Chrome exporter, the same one a serve-path job
//     trace uses; report.go renders the plain-text stall-attribution
//     report that ranks where the cycles went.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/decwi/decwi/internal/telemetry/flight"
)

// header is what every instrument carries beside its value: the name it
// is registered under, its unit ("cycles", "ns", "events", "values",
// "us", ...) and the human description the stall report and /metrics
// print.
type header struct {
	name, unit, desc string
}

// head gives the registry access to an instrument's header.
func (h *header) head() *header { return h }

// instrument is any of Counter, Gauge and Histogram.
type instrument interface{ head() *header }

// Counter is a named atomic counter that only adds: it has no Set and
// every caller adds a non-negative amount, so a value read at one scrape
// never exceeds the value read at the next, a counter shared by many
// runs (one recorder per server) holds their sum, and per-run figures
// belong on the run's own result. Handles are obtained once from
// Recorder.Counter and then Add'ed on hot paths; a nil *Counter
// swallows everything.
type Counter struct {
	header
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
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

// Recorder is the instrument registry plus the optional run trace: one
// mutex and one name→instrument map hold every counter, gauge and
// histogram, so a name has exactly one kind. All methods are safe for
// concurrent use and tolerate a nil receiver, which is the disabled
// mode.
type Recorder struct {
	trace *flight.Trace

	mu     sync.Mutex
	byName map[string]instrument
	order  []instrument // creation order
}

// New returns an enabled recorder whose run trace keeps at most n
// spans. n <= 0 builds a metrics-only recorder: counters, gauges and
// histograms record, but Trace returns nil, so instrumented code
// records no span. A nil *Recorder is the no-op recorder; there is
// deliberately no constructor for it.
func New(n int) *Recorder {
	r := &Recorder{byName: make(map[string]instrument)}
	if n > 0 {
		r.trace = flight.NewTrace("run", n)
	}
	return r
}

// Trace returns the run trace the kernel path records its spans into
// (nil on a nil or metrics-only recorder).
func (r *Recorder) Trace() *flight.Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// register returns the instrument registered under name, creating it
// with the given unit and description on first use (later calls keep
// the first unit and description). Asking for a name already
// registered as another kind panics: that is a programming error no
// run could recover from.
func register[T any, P interface {
	*T
	instrument
}](r *Recorder, name, unit, desc string) P {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byName[name]; ok {
		p, ok := in.(P)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q is registered as a %T, not a %T", name, in, P(nil)))
		}
		return p
	}
	p := P(new(T))
	*p.head() = header{name: name, unit: unit, desc: desc}
	r.byName[name] = p
	r.order = append(r.order, p)
	return p
}

// list returns the registered instruments of one kind in creation
// order.
func list[P instrument](r *Recorder) []P {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := []P{}
	for _, in := range r.order {
		if p, ok := in.(P); ok {
			out = append(out, p)
		}
	}
	return out
}

// Counter returns the named counter, creating it with the given unit
// and attribution description on first use. Returns nil — the no-op
// counter — on a nil recorder.
func (r *Recorder) Counter(name, unit, desc string) *Counter {
	if r == nil {
		return nil
	}
	return register[Counter](r, name, unit, desc)
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// recorder).
func (r *Recorder) Gauge(name, unit, desc string) *Gauge {
	if r == nil {
		return nil
	}
	return register[Gauge](r, name, unit, desc)
}

// Histogram returns the named histogram, creating it on first use (nil
// on a nil recorder).
func (r *Recorder) Histogram(name, unit, desc string) *Histogram {
	if r == nil {
		return nil
	}
	return register[Histogram](r, name, unit, desc)
}

// Counters returns the registered counters in creation order.
func (r *Recorder) Counters() []*Counter {
	if r == nil {
		return nil
	}
	return list[*Counter](r)
}

// Gauges returns the registered gauges in creation order.
func (r *Recorder) Gauges() []*Gauge {
	if r == nil {
		return nil
	}
	return list[*Gauge](r)
}

// Histograms returns the registered histograms in creation order.
func (r *Recorder) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	return list[*Histogram](r)
}
