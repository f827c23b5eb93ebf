package hls

import (
	"fmt"
	"strings"
	"sync"

	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/flight"
)

// Dependence is one loop-carried dependency as an HLS scheduler sees it:
// a value produced in iteration i is needed Latency cycles later by
// iteration i+Distance. The paper's problem dependency is the output
// counter: "this dependency on the value of the counter hinders an
// initiation interval of one clock cycle" (Section III-B). Incrementing
// the counter, comparing it against limitMain and steering the loop exit
// takes more than one cycle, but with Distance=1 the next iteration may
// not start until that chain settles — unless the read is taken from a
// delay register, which raises Distance.
type Dependence struct {
	// Name identifies the dependency in reports (e.g. "counter→exit").
	Name string
	// Latency is the cycle count of the producing chain (≥1).
	Latency int
	// Distance is the iteration distance at which the value is consumed
	// (≥1). Reading through a RegDelay with breakID b adds b+1 to the
	// distance of the underlying dependency.
	Distance int
}

// RecurrenceII returns the minimum initiation interval this single
// dependence permits: ceil(Latency/Distance).
func (d Dependence) RecurrenceII() int {
	if d.Latency < 1 || d.Distance < 1 {
		return 1
	}
	return (d.Latency + d.Distance - 1) / d.Distance
}

// ScheduleII computes the achievable loop initiation interval as the
// maximum recurrence II across all loop-carried dependencies (resource
// constraints are handled separately by the fpga package). An empty
// dependency list yields the ideal II of 1.
func ScheduleII(deps []Dependence) int {
	ii := 1
	for _, d := range deps {
		if r := d.RecurrenceII(); r > ii {
			ii = r
		}
	}
	return ii
}

// DelayedCounterDependence models Listing 2's counter → loop-exit chain.
// latency is the cycle depth of the increment+compare logic; breakID ≥ 0
// selects how many extra delay stages the read goes through (breakID=0
// means one stage — "here it suffices to use zero (meaning a delay of one
// cycle)"). The resulting dependence has Distance = 1 + (breakID+1):
// without any delay register the consumer is the *next* iteration
// (Distance 1); each delay stage pushes the consuming iteration one
// further out.
func DelayedCounterDependence(latency, breakID int) Dependence {
	if breakID < 0 {
		breakID = 0
	}
	return Dependence{
		Name:     fmt.Sprintf("counter→exit(breakId=%d)", breakID),
		Latency:  latency,
		Distance: 1 + breakID + 1,
	}
}

// DirectCounterDependence is the naive formulation: the loop test reads
// the counter produced by the immediately preceding iteration.
func DirectCounterDependence(latency int) Dependence {
	return Dependence{Name: "counter→exit(direct)", Latency: latency, Distance: 1}
}

// PipelinedLoop is the cycle model of one `#pragma HLS pipeline` loop:
// total cycles to run `trips` iterations = Depth + (trips−1)·II, where
// Depth is the pipeline depth (latency of one iteration) and II the
// initiation interval.
type PipelinedLoop struct {
	// Name identifies the loop in reports (e.g. "MAINLOOP").
	Name string
	// Depth is the pipeline depth in cycles (latency of one iteration).
	Depth int
	// II is the initiation interval in cycles.
	II int
}

// NewPipelinedLoop validates and constructs a loop model.
func NewPipelinedLoop(name string, depth, ii int) (PipelinedLoop, error) {
	if depth < 1 || ii < 1 {
		return PipelinedLoop{}, fmt.Errorf("hls: loop %q needs depth ≥ 1 and II ≥ 1 (got %d, %d)", name, depth, ii)
	}
	return PipelinedLoop{Name: name, Depth: depth, II: ii}, nil
}

// Cycles returns the cycle count for the given trip count (0 trips → 0).
func (l PipelinedLoop) Cycles(trips int64) int64 {
	if trips <= 0 {
		return 0
	}
	return int64(l.Depth) + (trips-1)*int64(l.II)
}

// Throughput returns outputs per cycle in steady state (1/II).
func (l PipelinedLoop) Throughput() float64 { return 1 / float64(l.II) }

// Process is one node of a DATAFLOW region. It runs to completion and
// returns an error on failure; communication happens over Streams
// captured in its closure.
type Process struct {
	Name string
	Run  func() error
}

// Dataflow executes a set of processes concurrently — the software
// equivalent of `#pragma HLS DATAFLOW` scheduling the work-items in
// parallel (Listing 1) — and joins them, collecting every error. Panics
// inside a process are recovered and reported as errors so one failing
// work-item cannot take down the simulation host.
func Dataflow(procs []Process) error { return DataflowWith(nil, procs) }

// DataflowWith is Dataflow with process-lifecycle telemetry: each
// process gets a "process" span (start..finish, wall clock) on its own
// track of the recorder's run trace. A recorder without a run trace
// records nothing and costs nothing.
func DataflowWith(rec *telemetry.Recorder, procs []Process) error {
	tr := rec.Trace()
	var wg sync.WaitGroup
	errs := make([]error, len(procs))
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p Process) {
			defer wg.Done()
			start := tr.Now()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("hls: process %q panicked: %v", p.Name, r)
				}
				if tr != nil {
					// Span arg 1 flags a failed process in the trace.
					var failed int64
					if errs[i] != nil {
						failed = 1
					}
					tr.Put(flight.Span{Track: "proc " + p.Name, Name: "process",
						StartUS: start, EndUS: tr.Now(), Arg: failed})
				}
			}()
			if err := p.Run(); err != nil {
				errs[i] = fmt.Errorf("hls: process %q: %w", p.Name, err)
			}
		}(i, p)
	}
	wg.Wait()
	var msgs []string
	for _, e := range errs {
		if e != nil {
			msgs = append(msgs, e.Error())
		}
	}
	if len(msgs) > 0 {
		return fmt.Errorf("%s", strings.Join(msgs, "; "))
	}
	return nil
}
