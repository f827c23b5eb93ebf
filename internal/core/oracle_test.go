package core

import (
	"context"
	"testing"

	"github.com/decwi/decwi/internal/rng/gamma"
)

// gatedSector is one sector of Listing 2's MAINLOOP verbatim: one
// CycleStep per trip, the counter<limitMain write guard, and the delayed
// exit read through breakID+1 register stages (prevCounter, shifted by
// UpdateRegUI at the top of each trip). It returns the outputs
// written, the trips spent and the trip index at which the quota was
// reached (-1 if never). It is the scalar oracle blockPhase.sector must
// reproduce trip for trip.
func gatedSector(gen *gamma.Generator, breakID int, limitMain, limitMax int64, emit func(float32)) (counter, trips, quotaAt int64) {
	quotaAt = -1
	prev := make([]int64, breakID+1)
	for ; trips < limitMax && prev[breakID] < limitMain; trips++ {
		copy(prev[1:], prev)
		prev[0] = counter
		if r := gen.CycleStep(); r.Valid && counter < limitMain {
			emit(r.Gamma)
			counter++
			if counter == limitMain {
				quotaAt = trips
			}
		}
	}
	return counter, trips, quotaAt
}

// runResult is one whole run's device buffer and per-work-item stats.
type runResult struct {
	// Data holds Scenarios·Sectors values in device layout: one
	// contiguous block per work-item, sector-major inside the block.
	Data []float32
	// BlockOffsets[w] is the index of work-item w's block in Data.
	BlockOffsets []int64
	PerWI        []WorkItemStats
	cfg          Config
}

// At returns the value for (workItem, sector, scenarioIndex) from the
// device layout.
func (r *runResult) At(wid, sector int, scenario int64) float32 {
	limitMain := (r.BlockOffsets[wid+1] - r.BlockOffsets[wid]) / int64(r.cfg.Sectors)
	return r.Data[r.BlockOffsets[wid]+int64(sector)*limitMain+scenario]
}

// SectorValues gathers every value of one sector across all work-items —
// the per-sector marginal the Fig. 6 validation histograms.
func (r *runResult) SectorValues(sector int) []float32 {
	out := make([]float32, 0, r.cfg.Scenarios)
	for w := 0; w < r.cfg.WorkItems; w++ {
		limitMain := (r.BlockOffsets[w+1] - r.BlockOffsets[w]) / int64(r.cfg.Sectors)
		start := r.BlockOffsets[w] + int64(sector)*limitMain
		out = append(out, r.Data[start:start+limitMain]...)
	}
	return out
}

// maxCycles returns the largest per-work-item cycle count: decoupled
// work-items run independently, so the slowest sets the compute time.
func maxCycles(stats []WorkItemStats) uint64 {
	var m uint64
	for _, s := range stats {
		m = max(m, s.Cycles)
	}
	return m
}

// gatedReference generates cfg's whole device buffer through the scalar
// oracle: each work-item on a fresh generator from its split seed,
// StreamOffset applied by the O(n) word-by-word walk, every sector a
// gatedSector. It shares only the layout (quotas, offsets, seeds) with
// the engine, so the block path and the jump seek are both checked
// against it.
func gatedReference(t *testing.T, cfg Config) *runResult {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := e.cfg
	res := &runResult{
		Data:         make([]float32, c.Scenarios*int64(c.Sectors)),
		BlockOffsets: e.BlockOffsets(),
		PerWI:        make([]WorkItemStats, c.WorkItems),
		cfg:          c,
	}
	for wid := range res.PerWI {
		gen := gamma.NewGenerator(c.Transform, c.MTParams, gamma.MustFromVariance(c.variance(0)), e.seeds[wid])
		gen.AdvanceStreams(c.StreamOffset)
		limitMain := e.per[wid]
		limitMax := c.LimitMaxFactor*limitMain + 1024
		off := e.offsets[wid]
		emit := func(v float32) {
			res.Data[off] = v
			off++
		}
		st := &res.PerWI[wid]
		st.WID, st.Scenarios = wid, limitMain
		for sector := 0; sector < c.Sectors; sector++ {
			gen.SetParams(gamma.MustFromVariance(c.variance(sector)))
			counter, trips, quotaAt := gatedSector(gen, c.BreakID, limitMain, limitMax, emit)
			if counter < limitMain {
				t.Fatalf("gated oracle: work-item %d starved in sector %d", wid, sector)
			}
			st.Overshoot += trips - (quotaAt + 1)
		}
		st.Cycles, st.Accepted = gen.Cycles(), gen.Accepted()
	}
	return res
}

// runChunked executes cfg through the host path — one RunChunk over
// every work-item — and returns it as a runResult.
func runChunked(t *testing.T, cfg Config) *runResult {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := e.cfg
	res := &runResult{
		Data:         make([]float32, c.Scenarios*int64(c.Sectors)),
		BlockOffsets: e.BlockOffsets(),
		PerWI:        make([]WorkItemStats, c.WorkItems),
		cfg:          c,
	}
	if err := e.RunChunk(context.Background(), res.Data, 0, c.WorkItems, res.PerWI); err != nil {
		t.Fatal(err)
	}
	return res
}

// sameRun fails unless got matches want in data and in each work-item's
// cycles, acceptances, overshoot and quota.
func sameRun(t *testing.T, what string, want, got *runResult) {
	t.Helper()
	if len(want.Data) != len(got.Data) {
		t.Fatalf("%s: length %d, want %d", what, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: Data[%d] = %x, want %x", what, i, got.Data[i], want.Data[i])
		}
	}
	for w, x := range want.PerWI {
		g := got.PerWI[w]
		if x.Cycles != g.Cycles || x.Accepted != g.Accepted || x.Overshoot != g.Overshoot || x.Scenarios != g.Scenarios {
			t.Fatalf("%s: work-item %d {cycles %d accepted %d overshoot %d quota %d}, want {%d %d %d %d}",
				what, w, g.Cycles, g.Accepted, g.Overshoot, g.Scenarios, x.Cycles, x.Accepted, x.Overshoot, x.Scenarios)
		}
	}
}
