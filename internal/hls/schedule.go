// Package hls models the high-level-synthesis constructs the paper's FPGA
// design is built from (Xilinx Vivado HLS via SDAccel, Section II-A).
// Dataflow is a process network runner (goroutines joined with error
// collection), standing in for `#pragma HLS DATAFLOW`; the NDRange
// formulation in internal/core runs its compute units through it.
//
// The Listing 2 cycle models (initiation-interval scheduling, the
// delay-register array, the delayed loop exit) and a model of Listing
// 1's hls::stream live in this package's tests; the engine's block
// phase in internal/core runs the loop itself, and internal/fpga's
// co-simulation models the stream and its transfers cycle by cycle.
package hls

import (
	"fmt"
	"strings"
	"sync"
)

// Process is one node of a DATAFLOW region. It runs to completion and
// returns an error on failure; communication happens over state
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
func Dataflow(procs []Process) error {
	var wg sync.WaitGroup
	errs := make([]error, len(procs))
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p Process) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("hls: process %q panicked: %v", p.Name, r)
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
