package hls

import (
	"fmt"
	"strings"
	"sync"

	"github.com/decwi/decwi/internal/telemetry"
	"github.com/decwi/decwi/internal/telemetry/flight"
)

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
