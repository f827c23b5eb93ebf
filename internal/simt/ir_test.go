package simt

import "fmt"

// This file generalizes the Fig. 2 comparison beyond the gamma kernel:
// a small structured IR for data-parallel kernels with data-dependent
// branches and loops, executed under two models:
//
//   - RunLockstep: the fixed-architecture model of Section II-B — all
//     lanes of a hardware partition advance together; a divergent branch
//     serializes both sides (inactive lanes idle, Fig. 2b); a loop runs
//     until the *last* active lane exits.
//   - RunDecoupled: the FPGA model of Section II-C — each lane executes
//     independently and pays only for its own path (Fig. 2c).
//
// Cost is measured in issue slots: one slot per op-cost unit per lockstep
// step (regardless of how many lanes do useful work), or per lane-op in
// the decoupled model. The ratio is the divergence inflation for an
// arbitrary kernel, which is what makes the paper's approach "generic".
// No binary runs this IR (decwi-repro's Fig. 2 line comes from
// InflationSweep over the real generators), so it lives beside the tests
// that exercise it.

// LaneState is the mutable per-lane context the IR's closures operate on.
type LaneState interface{}

// Node is one IR construct.
type Node interface {
	// isNode is a marker; execution is implemented by the engines.
	isNode()
}

// Compute is a straight-line operation applied to every active lane.
type Compute struct {
	// Name labels the op in traces.
	Name string
	// Cost is the op's issue-slot cost (≥1).
	Cost int64
	// Apply mutates one lane's state; nil is allowed for pure-cost ops.
	Apply func(LaneState)
}

func (Compute) isNode() {}

// Branch is a data-dependent two-sided branch.
type Branch struct {
	Name string
	// Cond evaluates the branch condition on one lane.
	Cond func(LaneState) bool
	Then []Node
	Else []Node
}

func (Branch) isNode() {}

// Loop repeats Body while Cond holds on a lane. MaxTrips bounds runaway
// loops (0 means the engine default of 1<<20).
type Loop struct {
	Name     string
	Cond     func(LaneState) bool
	Body     []Node
	MaxTrips int64
}

func (Loop) isNode() {}

// Program is a kernel body.
type Program []Node

// Validate checks structural invariants (positive costs, non-nil
// conditions).
func (p Program) Validate() error {
	for i, n := range p {
		switch v := n.(type) {
		case Compute:
			if v.Cost < 1 {
				return fmt.Errorf("simt: compute %q (node %d) needs cost ≥ 1", v.Name, i)
			}
		case Branch:
			if v.Cond == nil {
				return fmt.Errorf("simt: branch %q (node %d) needs a condition", v.Name, i)
			}
			if err := Program(v.Then).Validate(); err != nil {
				return err
			}
			if err := Program(v.Else).Validate(); err != nil {
				return err
			}
		case Loop:
			if v.Cond == nil {
				return fmt.Errorf("simt: loop %q (node %d) needs a condition", v.Name, i)
			}
			if err := Program(v.Body).Validate(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("simt: unknown node %T at %d", n, i)
		}
	}
	return nil
}

const defaultMaxTrips = 1 << 20

// ExecStats summarizes one execution.
type ExecStats struct {
	// IssueSlots is the total cost charged (partition-wide for lockstep,
	// per the slowest lane for decoupled — see MaxLaneSlots).
	IssueSlots int64
	// LaneOps is the useful work: Σ over lanes of op costs actually
	// applied to that lane.
	LaneOps int64
	// DivergentBranches counts branch evaluations where the active lanes
	// split.
	DivergentBranches int64
	// MaxLaneSlots is the decoupled completion time: the slowest lane's
	// own cost (equals IssueSlots/width only under perfect balance).
	MaxLaneSlots int64
}

// Utilization returns LaneOps / (IssueSlots · width) for a lockstep run —
// the fraction of issue slots doing useful work (the red-dot metric of
// Fig. 2b).
func (s ExecStats) Utilization(width int) float64 {
	if s.IssueSlots == 0 {
		return 0
	}
	return float64(s.LaneOps) / float64(s.IssueSlots*int64(width))
}

// RunLockstep executes prog over the lanes as one hardware partition.
func RunLockstep(prog Program, lanes []LaneState) (ExecStats, error) {
	if err := prog.Validate(); err != nil {
		return ExecStats{}, err
	}
	if len(lanes) == 0 {
		return ExecStats{}, fmt.Errorf("simt: need at least one lane")
	}
	var st ExecStats
	active := make([]bool, len(lanes))
	for i := range active {
		active[i] = true
	}
	err := lockstepBlock(prog, lanes, active, &st)
	return st, err
}

// anyActive reports whether the mask has a live lane.
func anyActive(mask []bool) bool {
	for _, a := range mask {
		if a {
			return true
		}
	}
	return false
}

// countActive returns the number of live lanes.
func countActive(mask []bool) int64 {
	var n int64
	for _, a := range mask {
		if a {
			n++
		}
	}
	return n
}

// lockstepBlock executes a node list under an activity mask.
func lockstepBlock(block []Node, lanes []LaneState, mask []bool, st *ExecStats) error {
	for _, n := range block {
		if !anyActive(mask) {
			return nil
		}
		switch v := n.(type) {
		case Compute:
			// The partition issues the op once; every active lane does
			// useful work, inactive lanes idle.
			st.IssueSlots += v.Cost
			st.LaneOps += v.Cost * countActive(mask)
			if v.Apply != nil {
				for i, a := range mask {
					if a {
						v.Apply(lanes[i])
					}
				}
			}
		case Branch:
			thenMask := make([]bool, len(lanes))
			elseMask := make([]bool, len(lanes))
			for i, a := range mask {
				if !a {
					continue
				}
				if v.Cond(lanes[i]) {
					thenMask[i] = true
				} else {
					elseMask[i] = true
				}
			}
			thenAny, elseAny := anyActive(thenMask), anyActive(elseMask)
			if thenAny && elseAny {
				st.DivergentBranches++
			}
			// Both sides execute sequentially whenever any lane takes
			// them — the serialization of Fig. 2b.
			if thenAny {
				if err := lockstepBlock(v.Then, lanes, thenMask, st); err != nil {
					return err
				}
			}
			if elseAny {
				if err := lockstepBlock(v.Else, lanes, elseMask, st); err != nil {
					return err
				}
			}
		case Loop:
			maxTrips := v.MaxTrips
			if maxTrips == 0 {
				maxTrips = defaultMaxTrips
			}
			loopMask := append([]bool(nil), mask...)
			for trip := int64(0); ; trip++ {
				if trip >= maxTrips {
					return fmt.Errorf("simt: loop %q exceeded %d trips", v.Name, maxTrips)
				}
				for i, a := range loopMask {
					if a && !v.Cond(lanes[i]) {
						loopMask[i] = false // exited lanes idle until all finish
					}
				}
				if !anyActive(loopMask) {
					break
				}
				if err := lockstepBlock(v.Body, lanes, loopMask, st); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// RunDecoupled executes prog on each lane independently — the FPGA model.
func RunDecoupled(prog Program, lanes []LaneState) (ExecStats, error) {
	if err := prog.Validate(); err != nil {
		return ExecStats{}, err
	}
	if len(lanes) == 0 {
		return ExecStats{}, fmt.Errorf("simt: need at least one lane")
	}
	var st ExecStats
	for _, lane := range lanes {
		slots, err := decoupledBlock(prog, lane)
		if err != nil {
			return ExecStats{}, err
		}
		st.LaneOps += slots
		st.IssueSlots += slots
		if slots > st.MaxLaneSlots {
			st.MaxLaneSlots = slots
		}
	}
	return st, nil
}

// decoupledBlock executes a node list on one lane, returning its cost.
func decoupledBlock(block []Node, lane LaneState) (int64, error) {
	var slots int64
	for _, n := range block {
		switch v := n.(type) {
		case Compute:
			slots += v.Cost
			if v.Apply != nil {
				v.Apply(lane)
			}
		case Branch:
			var side []Node
			if v.Cond(lane) {
				side = v.Then
			} else {
				side = v.Else
			}
			s, err := decoupledBlock(side, lane)
			if err != nil {
				return 0, err
			}
			slots += s
		case Loop:
			maxTrips := v.MaxTrips
			if maxTrips == 0 {
				maxTrips = defaultMaxTrips
			}
			for trip := int64(0); v.Cond(lane); trip++ {
				if trip >= maxTrips {
					return 0, fmt.Errorf("simt: loop %q exceeded %d trips", v.Name, maxTrips)
				}
				s, err := decoupledBlock(v.Body, lane)
				if err != nil {
					return 0, err
				}
				slots += s
			}
		}
	}
	return slots, nil
}

// ProgramInflation runs prog under both models over the same lane states
// (deep-copied by the caller via mk) and returns lockstep issue slots
// divided by the decoupled per-lane maximum — the generic-kernel
// divergence inflation.
func ProgramInflation(prog Program, width int, mk func(lane int) LaneState) (float64, error) {
	if width < 1 {
		return 0, fmt.Errorf("simt: width must be ≥ 1")
	}
	lock := make([]LaneState, width)
	dec := make([]LaneState, width)
	for i := 0; i < width; i++ {
		lock[i] = mk(i)
		dec[i] = mk(i) // fresh, identically-seeded state for the second run
	}
	ls, err := RunLockstep(prog, lock)
	if err != nil {
		return 0, err
	}
	ds, err := RunDecoupled(prog, dec)
	if err != nil {
		return 0, err
	}
	if ds.MaxLaneSlots == 0 {
		return 1, nil
	}
	return float64(ls.IssueSlots) / float64(ds.MaxLaneSlots), nil
}
