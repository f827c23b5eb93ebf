package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders the plain-text stall-attribution report: the answer
// to "where did the cycles go?". Instrumentation sites register
// counters with a unit and a human description; the report groups the
// per-work-item instances (names like "rejection.gamma-loop[3]" share
// the group "rejection.gamma-loop"), ranks the groups, and expresses
// cycle-domain groups as a share of the total pipeline cycles.
//
// Naming conventions the report understands:
//
//   - unit "cycles": simulated-clock attribution. "cosim.*" groups are
//     ranked against the co-simulation's own total, "cosim.cycles";
//     every other group against "engine.cycles" (total pipeline
//     iterations). The two clocks count different workloads, so a
//     share of one is never taken against the other's total.
//   - unit "ns": host wall-clock time, such as the parallel scheduler's
//     per-worker busy time; ranked separately, because wall time on the
//     host is not a cycle count of the device.
//   - any other unit: listed unranked at the end (bursts, commands...).
//
// The "engine.cycles"/"engine.accepted" groups, when present, feed the
// header's combined rejection rate (Eq. (1)'s r).

// reportGroup is one aggregated row of the report.
type reportGroup struct {
	name      string
	desc      string
	unit      string
	total     int64
	instances int
}

// groupKey strips a trailing "[...]" instance suffix from a counter
// name: "mtfeed.mt1-hold[4]" → "mtfeed.mt1-hold". Only a *trailing*
// bracket group is an instance index — "rng.gamma[0].block-fills"
// names one specific work-item's counter and stays its own group, so
// the report can rank individual work-items.
func groupKey(name string) string {
	if strings.HasSuffix(name, "]") {
		if i := strings.LastIndexByte(name, '['); i > 0 {
			return name[:i]
		}
	}
	return name
}

// groups aggregates counters by groupKey, preserving first-seen desc.
func (r *Recorder) groups() map[string]*reportGroup {
	cs := r.Counters()
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name() < cs[j].Name() })
	out := map[string]*reportGroup{}
	for _, c := range cs {
		key := groupKey(c.Name())
		g, ok := out[key]
		if !ok {
			g = &reportGroup{name: key, desc: c.Desc(), unit: c.Unit()}
			out[key] = g
		}
		g.total += c.Value()
		g.instances++
	}
	return out
}

// StallReport renders the attribution report ("" on a nil recorder).
func (r *Recorder) StallReport() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	groups := r.groups()

	// Scheduler counters get their own section below; keep them out of
	// the generic listings.
	schedulerNames := map[string]bool{"parallel.chunks": true, "parallel.steals": true}
	// The totals feed the header and the shares, not the rankings.
	totals := map[string]bool{"engine.cycles": true, "engine.accepted": true, "cosim.cycles": true}
	var cycleGroups, cosimGroups, nsGroups, otherGroups []*reportGroup
	for _, g := range groups {
		switch {
		case schedulerNames[g.name] || totals[g.name]:
		case g.unit == "cycles" && strings.HasPrefix(g.name, "cosim."):
			cosimGroups = append(cosimGroups, g)
		case g.unit == "cycles":
			cycleGroups = append(cycleGroups, g)
		case g.unit == "ns":
			nsGroups = append(nsGroups, g)
		default:
			otherGroups = append(otherGroups, g)
		}
	}
	rank := func(gs []*reportGroup) {
		sort.Slice(gs, func(i, j int) bool {
			if gs[i].total != gs[j].total {
				return gs[i].total > gs[j].total
			}
			return gs[i].name < gs[j].name
		})
	}
	rank(cycleGroups)
	rank(cosimGroups)
	rank(nsGroups)
	rank(otherGroups)

	fmt.Fprintf(&b, "Stall attribution report\n")
	fmt.Fprintf(&b, "========================\n")
	var totalCycles, accepted int64
	if g, ok := groups["engine.cycles"]; ok {
		totalCycles = g.total
	}
	if g, ok := groups["engine.accepted"]; ok {
		accepted = g.total
	}
	if totalCycles > 0 {
		fmt.Fprintf(&b, "pipeline cycles: %d   accepted outputs: %d", totalCycles, accepted)
		if accepted > 0 {
			fmt.Fprintf(&b, "   combined rejection rate r = %.4f", float64(totalCycles-accepted)/float64(accepted))
		}
		fmt.Fprintf(&b, "\n")
	}
	if r.trace != nil {
		tj := r.trace.Snapshot()
		fmt.Fprintf(&b, "spans recorded: %d (%d past the span budget dropped)\n", len(tj.Spans)+tj.Dropped, tj.Dropped)
	}
	fmt.Fprintf(&b, "\n")

	cycleTable := func(title string, gs []*reportGroup, total int64) {
		fmt.Fprintf(&b, "%s\n", title)
		fmt.Fprintf(&b, "%-4s %-44s %14s %8s\n", "rank", "source", "cycles", "share")
		for i, g := range gs {
			share := "-"
			if total > 0 {
				share = fmt.Sprintf("%5.1f%%", 100*float64(g.total)/float64(total))
			}
			label := g.desc
			if label == "" {
				label = g.name
			}
			fmt.Fprintf(&b, "%-4d %-44s %14d %8s\n", i+1, label, g.total, share)
			if g.desc != "" {
				fmt.Fprintf(&b, "     [%s, %d instance(s)]\n", g.name, g.instances)
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	if len(cycleGroups) > 0 {
		cycleTable("Cycle attribution (ranked, share of pipeline cycles)", cycleGroups, totalCycles)
	}
	if len(cosimGroups) > 0 {
		var cosimCycles int64
		if g, ok := groups["cosim.cycles"]; ok {
			cosimCycles = g.total
		}
		cycleTable(fmt.Sprintf("Co-simulation cycle attribution (ranked, share of %d co-simulation cycles)", cosimCycles),
			cosimGroups, cosimCycles)
	}

	if len(nsGroups) > 0 {
		fmt.Fprintf(&b, "Host wall-clock time (ranked)\n")
		fmt.Fprintf(&b, "%-4s %-44s %14s\n", "rank", "source", "time")
		for i, g := range nsGroups {
			label := g.desc
			if label == "" {
				label = g.name
			}
			fmt.Fprintf(&b, "%-4d %-44s %11.3fms\n", i+1, label, float64(g.total)/1e6)
			if g.desc != "" {
				fmt.Fprintf(&b, "     [%s, %d instance(s)]\n", g.name, g.instances)
			}
		}
		fmt.Fprintf(&b, "\n")
	}

	if g, ok := groups["parallel.chunks"]; ok && g.total > 0 {
		fmt.Fprintf(&b, "Parallel scheduler (work-item chunks)\n")
		var steals int64
		if s, ok := groups["parallel.steals"]; ok {
			steals = s.total
		}
		fmt.Fprintf(&b, "  chunks executed: %d   stolen: %d (%.1f%%)\n",
			g.total, steals, 100*float64(steals)/float64(g.total))
		// Per-worker busy spread: the residual skew work stealing could
		// not absorb (the scheduler's analogue of a stalled pipeline).
		var busyMin, busyMax int64 = -1, 0
		for _, c := range r.Counters() {
			if strings.HasPrefix(c.Name(), "parallel.worker-busy[") {
				v := c.Value()
				if busyMin < 0 || v < busyMin {
					busyMin = v
				}
				if v > busyMax {
					busyMax = v
				}
			}
		}
		if busyMin >= 0 {
			fmt.Fprintf(&b, "  worker busy spread: %.3fms min .. %.3fms max\n",
				float64(busyMin)/1e6, float64(busyMax)/1e6)
		}
		fmt.Fprintf(&b, "\n")
	}

	// Gauges and distributions render sorted by name, not by magnitude:
	// levels and shapes are read by name, and name order keeps the report
	// byte-identical across runs of the same workload.
	gauges := r.Gauges()
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].Name() < gauges[j].Name() })
	if len(gauges) > 0 {
		fmt.Fprintf(&b, "Gauges (level at report time)\n")
		for _, g := range gauges {
			fmt.Fprintf(&b, "  %-48s %14d %s\n", g.Name(), g.Value(), g.Unit())
		}
		fmt.Fprintf(&b, "\n")
	}

	hists := r.Histograms()
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name() < hists[j].Name() })
	if len(hists) > 0 {
		fmt.Fprintf(&b, "Distributions (quantiles over power-of-two buckets)\n")
		fmt.Fprintf(&b, "  %-44s %10s %8s %8s %8s %8s\n", "name", "count", "p50", "p90", "p99", "max")
		for _, h := range hists {
			s := h.Snapshot()
			fmt.Fprintf(&b, "  %-44s %10d %8d %8d %8d %8d %s\n",
				s.Name, s.Count, s.P50, s.P90, s.P99, s.Max, s.Unit)
		}
		fmt.Fprintf(&b, "\n")
	}

	if len(otherGroups) > 0 {
		fmt.Fprintf(&b, "Other counters\n")
		for _, g := range otherGroups {
			fmt.Fprintf(&b, "  %-48s %14d %s\n", g.name, g.total, g.unit)
		}
	}
	return b.String()
}

// WriteStallReport writes the attribution report to w.
func (r *Recorder) WriteStallReport(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("telemetry: nil recorder has no report")
	}
	_, err := io.WriteString(w, r.StallReport())
	return err
}
