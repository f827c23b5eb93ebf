package core

import (
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

// TestBlockComputeEquivalence is this PR's tentpole invariant: the block
// compute path (bulk Mersenne-Twister fills + batched normal/gamma
// kernels) produces output bitwise-identical to the cycle-exact gated
// one-word path, for every Table I config at a fixed seed — including
// a non-zero BreakID so the delayed-exit overshoot semantics are
// exercised after the quota trip. Scenarios is sized so each work-item
// runs several full blocks per sector plus shorter quota-bounded ones.
func TestBlockComputeEquivalence(t *testing.T) {
	cases := append(tableIConfigs[:len(tableIConfigs):len(tableIConfigs)], struct {
		name      string
		transform normal.Kind
		params    mt.Params
	}{"Ziggurat-MT19937", normal.Ziggurat, mt.MT19937Params})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				Transform: tc.transform, MTParams: tc.params,
				WorkItems: 2, Scenarios: 2000, Sectors: 3,
				SectorVariances: []float64{0.5, 1.39, 4.0},
				Seed:            0xDECB10C5,
				BreakID:         2,
			}
			run := func(gated bool) *RunResult {
				cfg := base
				cfg.GatedCompute = gated
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			gated := run(true)
			block := run(false)
			if len(gated.Data) != len(block.Data) {
				t.Fatalf("length mismatch: gated %d, block %d", len(gated.Data), len(block.Data))
			}
			for i := range gated.Data {
				if gated.Data[i] != block.Data[i] {
					t.Fatalf("Data[%d]: gated %x, block %x", i, gated.Data[i], block.Data[i])
				}
			}
			// The block path must also report the identical pipeline
			// telemetry: same cycle counts, acceptances and overshoot.
			for w := range gated.PerWI {
				g, b := gated.PerWI[w], block.PerWI[w]
				if g.Cycles != b.Cycles || g.Accepted != b.Accepted || g.Overshoot != b.Overshoot {
					t.Fatalf("work-item %d stats: gated {cycles %d accepted %d overshoot %d}, block {%d %d %d}",
						w, g.Cycles, g.Accepted, g.Overshoot, b.Cycles, b.Accepted, b.Overshoot)
				}
			}
		})
	}
}

// TestBlockComputeDeterminism: two block-path runs at one seed agree —
// the sync.Pool scratch reuse introduces no cross-run state.
func TestBlockComputeDeterminism(t *testing.T) {
	cfg := Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT521Params,
		WorkItems: 4, Scenarios: 3000, Sectors: 2,
		SectorVariance: 1.39, Seed: 7,
	}
	run := func() []float32 {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Data
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Data[%d] differs across identical block-path runs", i)
		}
	}
}

// TestBlockComputeTinyQuota covers the degenerate splits: quotas below
// one block (every sector a few short quota-bounded blocks), quotas of
// exactly one block (quota lands on a block boundary, exercising the
// quotaAt = last-trip case when all attempts accept — and the discarded
// overshoot block either way), and zero scenarios for trailing
// work-items.
func TestBlockComputeTinyQuota(t *testing.T) {
	for _, scenarios := range []int64{1, 3, 255, 256, 257, 512} {
		cfg := Config{
			Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
			WorkItems: 3, Scenarios: scenarios, Sectors: 2,
			SectorVariance: 0.9, Seed: 31, BreakID: 1,
		}
		run := func(gated bool) []float32 {
			c := cfg
			c.GatedCompute = gated
			e, err := NewEngine(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res.Data
		}
		g, b := run(true), run(false)
		for i := range g {
			if g[i] != b[i] {
				t.Fatalf("scenarios=%d Data[%d]: gated %x, block %x", scenarios, i, g[i], b[i])
			}
		}
	}
}

// quotaSweep is the per-work-item quota boundary set of the block path:
// tiny quotas served by a few short blocks, and quotas just below, at
// and past one and two blocks of blockCycles attempts.
var quotaSweep = []int64{1, 2, 3, 7, 64, 127, 128, 129, 255, 256, 257, 511, 513}

// sweepTransforms is every uniform-to-normal stage the engine offers.
var sweepTransforms = []normal.Kind{
	normal.MarsagliaBray, normal.ICDFFPGA, normal.ICDFCUDA, normal.BoxMuller, normal.Ziggurat,
}

// TestBlockComputeQuotaSweep crosses every quota of quotaSweep with
// every transform and BreakID {0, 1, 2, 300} — 300 exceeds blockCycles,
// so the discarded overshoot runs as more than one block — and demands
// that the fused and streamed block paths match the gated MAINLOOP in
// data and in cycles, acceptances and overshoot. Two work-items share
// one buffer, so an overshoot written into the sink would land in the
// next work-item's rows and show as a data diff. The delayed exit must
// fire exactly BreakID+1 trips after each sector's quota trip. Quota 0
// (one scenario over two work-items leaves the second empty) must spend
// no trips at all: its exit fires before the first trip.
func TestBlockComputeQuotaSweep(t *testing.T) {
	for i, tr := range sweepTransforms {
		params := mt.MT521Params
		if i%2 == 1 {
			params = mt.MT19937Params
		}
		for _, breakID := range []int{0, 1, 2, 300} {
			for _, quota := range append([]int64{0}, quotaSweep...) {
				scenarios := max(2*quota, 1)
				base := Config{
					Transform: tr, MTParams: params,
					WorkItems: 2, Scenarios: scenarios, Sectors: 2,
					SectorVariances: []float64{0.6, 2.5},
					Seed:            uint64(1000*i + 10*breakID + int(quota)),
					BreakID:         breakID,
				}
				run := func(gated, streamed bool) *RunResult {
					cfg := base
					cfg.GatedCompute, cfg.StreamedTransport = gated, streamed
					e, err := NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Run()
					if err != nil {
						t.Fatalf("%v BreakID=%d quota=%d: %v", tr, breakID, quota, err)
					}
					return res
				}
				gated := run(true, false)
				for _, streamed := range []bool{false, true} {
					block := run(false, streamed)
					for j := range gated.Data {
						if gated.Data[j] != block.Data[j] {
							t.Fatalf("%v BreakID=%d quota=%d streamed=%v Data[%d]: gated %x, block %x",
								tr, breakID, quota, streamed, j, gated.Data[j], block.Data[j])
						}
					}
					for w, g := range gated.PerWI {
						b := block.PerWI[w]
						if g.Cycles != b.Cycles || g.Accepted != b.Accepted || g.Overshoot != b.Overshoot {
							t.Fatalf("%v BreakID=%d quota=%d streamed=%v work-item %d: gated {cycles %d accepted %d overshoot %d}, block {%d %d %d}",
								tr, breakID, quota, streamed, w, g.Cycles, g.Accepted, g.Overshoot, b.Cycles, b.Accepted, b.Overshoot)
						}
						want := int64(breakID+1) * int64(base.Sectors)
						if b.Scenarios == 0 {
							want = 0
						}
						if b.Overshoot != want {
							t.Fatalf("%v BreakID=%d quota=%d work-item %d: overshoot %d, want (BreakID+1)·Sectors = %d",
								tr, breakID, quota, w, b.Overshoot, want)
						}
					}
				}
			}
		}
	}
}
