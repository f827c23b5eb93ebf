package core

import (
	"fmt"
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

// TestBlockComputeEquivalence is the block path's defining invariant:
// bulk Mersenne-Twister fills plus batched normal/gamma kernels produce
// output bitwise-identical to the cycle-exact gated one-word oracle
// (gatedReference), for every Table I config at a fixed seed — including
// a non-zero BreakID so the delayed-exit overshoot semantics are
// exercised after the quota trip. Scenarios is sized so each work-item
// runs several full blocks per sector plus shorter quota-bounded ones.
// The pipeline telemetry must match too: same cycle counts, acceptances
// and overshoot.
func TestBlockComputeEquivalence(t *testing.T) {
	cases := append(tableIConfigs[:len(tableIConfigs):len(tableIConfigs)], struct {
		name      string
		transform normal.Kind
		params    mt.Params
	}{"Ziggurat-MT19937", normal.Ziggurat, mt.MT19937Params})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Transform: tc.transform, MTParams: tc.params,
				WorkItems: 2, Scenarios: 2000, Sectors: 3,
				SectorVariances: []float64{0.5, 1.39, 4.0},
				Seed:            0xDECB10C5,
				BreakID:         2,
			}
			sameRun(t, "block vs gated", gatedReference(t, cfg), runChunked(t, cfg))
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
		sameRun(t, fmt.Sprintf("scenarios=%d", scenarios), gatedReference(t, cfg), runSmall(t, cfg))
	}
}

// quotaSweep is the per-work-item quota boundary set of the block path:
// tiny quotas served by a few short blocks, and quotas just below, at
// and past one and two blocks of blockCycles attempts.
var quotaSweep = []int64{1, 2, 3, 7, 64, 127, 128, 129, 255, 256, 257, 511, 513}

// sweepTransforms is every uniform-to-normal stage the engine offers.
var sweepTransforms = []normal.Kind{
	normal.MarsagliaBray, normal.ICDFFPGA, normal.ICDFCUDA, normal.Ziggurat,
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
				gated := gatedReference(t, base)
				for _, streamed := range []bool{false, true} {
					block := runChunked
					if streamed {
						block = runSmall
					}
					got := block(t, base)
					sameRun(t, fmt.Sprintf("%v BreakID=%d quota=%d streamed=%v", tr, breakID, quota, streamed), gated, got)
					for w, b := range got.PerWI {
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
