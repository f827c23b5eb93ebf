package hls

import "fmt"

// The cycle models of Listing 2: the initiation-interval arithmetic an
// HLS scheduler performs over loop-carried dependencies (where the
// paper's II=1 claim is made checkable), the pipelined-loop cycle count,
// the delay-register array that breaks the counter dependency, and the
// control mechanics of the MAINLOOP's delayed exit. The engine realises
// the same exit rule in internal/core's block phase; these models keep
// the paper's arithmetic checked beside it.

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

// RegDelay is the completely partitioned delay register array of
// Listing 2: a shift register of BreakID+1 stages. Each Update call
// models one `UpdateRegUI(breakId, counter, prevCounter)` invocation at
// the top of the pipelined loop: the current counter enters stage 0 and
// the oldest value becomes readable at index BreakID. Reading the counter
// through the delay line lengthens the loop-carried dependency distance,
// which is exactly what restores II=1 (see ScheduleII).
type RegDelay struct {
	regs []uint32
}

// NewRegDelay builds a delay line with breakID+1 stages, initialized to
// zero (matching the `unsigned int prevCounter[breakId+1]` array whose
// contents start below any loop limit).
func NewRegDelay(breakID int) *RegDelay {
	if breakID < 0 {
		breakID = 0
	}
	return &RegDelay{regs: make([]uint32, breakID+1)}
}

// Update shifts the line and inserts the current value at stage 0.
func (r *RegDelay) Update(current uint32) {
	copy(r.regs[1:], r.regs[:len(r.regs)-1])
	r.regs[0] = current
}

// Delayed returns the value at the last stage — `prevCounter[breakId]` —
// i.e. the counter as it was len(regs) iterations ago (one iteration ago
// for breakID = 0, since Update runs before the loop test uses it).
func (r *RegDelay) Delayed() uint32 { return r.regs[len(r.regs)-1] }

// Stages returns the number of delay stages (BreakID+1).
func (r *RegDelay) Stages() int { return len(r.regs) }

// This file simulates the control mechanics of Listing 2's MAINLOOP — a
// pipelined loop whose exit condition depends on a counter incremented
// inside a divergent branch:
//
//	MAINLOOP: for (k=0; (k<limitMax) && (prevCounter[breakId]<limitMain); ++k) {
//	    #pragma HLS pipeline II=1
//	    UpdateRegUI(breakId, counter, prevCounter);
//	    ...
//	    if (gRN_ok && (counter<limitMain)) { write; ++counter; }
//	}
//
// Two properties matter and are both verified by the test suite:
//
//  1. Exactness: the guarded write (`counter < limitMain`) means exactly
//     limitMain outputs are emitted even though the loop keeps running
//     for a few extra iterations after the quota is reached (the delayed
//     exit test observes a stale counter).
//  2. Bounded overshoot: the number of extra iterations is at most the
//     delay depth plus the iterations until the next exit evaluation —
//     a constant — so the throughput cost of the workaround is O(1) per
//     SECLOOP iteration, not O(limitMain).

// DynamicLoopResult summarizes one simulated MAINLOOP run.
type DynamicLoopResult struct {
	// Trips is the number of loop iterations actually executed.
	Trips int64
	// Emitted is the number of valid outputs written to the stream.
	Emitted int64
	// Overshoot counts the iterations executed after the output quota
	// was logically reached (the price of the delayed exit test).
	Overshoot int64
	// HitLimitMax reports that the k<limitMax guard fired before the
	// quota was reached (the stochastic process starved the loop).
	HitLimitMax bool
}

// SimulateDynamicExit runs the MAINLOOP control mechanics with a caller-
// supplied validity process: valid(k) reports whether iteration k's
// candidate passed all rejection stages. breakID selects the delay depth
// of the counter read used in the exit condition, exactly as in
// Listing 2. emit, when non-nil, is invoked for every accepted output
// with its iteration index.
func SimulateDynamicExit(limitMain, limitMax int64, breakID int, valid func(k int64) bool, emit func(k int64)) (DynamicLoopResult, error) {
	if limitMain < 0 || limitMax < 0 {
		return DynamicLoopResult{}, fmt.Errorf("hls: negative loop limits (%d, %d)", limitMain, limitMax)
	}
	var res DynamicLoopResult
	reg := NewRegDelay(breakID)
	var counter uint32
	quotaAt := int64(-1) // iteration at which the quota was reached

	var k int64
	for k = 0; k < limitMax && int64(reg.Delayed()) < limitMain; k++ {
		// UpdateRegUI runs at the top of the body: the exit test of the
		// *next* iteration sees the counter as of the start of this one.
		reg.Update(counter)

		if valid(k) && int64(counter) < limitMain {
			if emit != nil {
				emit(k)
			}
			counter++
			res.Emitted++
			if int64(counter) == limitMain {
				quotaAt = k
			}
		}
		res.Trips++
	}
	if quotaAt >= 0 {
		res.Overshoot = res.Trips - (quotaAt + 1)
	}
	res.HitLimitMax = k >= limitMax && int64(counter) < limitMain
	return res, nil
}

// MaxOvershoot returns the number of extra iterations the delayed exit
// executes after the quota is reached (when limitMax does not truncate
// first): the counter value written in the quota iteration k enters the
// delay line at the top of iteration k+1 and needs breakID further shifts
// before the exit test can observe it, so iterations k+1 .. k+breakID+1
// still run — breakID+1 extra trips.
func MaxOvershoot(breakID int) int64 {
	if breakID < 0 {
		breakID = 0
	}
	return int64(breakID) + 1
}
