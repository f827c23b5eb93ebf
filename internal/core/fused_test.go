package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
)

// TestFusedRunEquivalence pins the fused pipe (RunChunk, candidate
// blocks landing in the device buffer at their layout offsets) to the
// gated scalar oracle, bitwise, for every Table I config at a fixed
// seed. BreakID is non-zero so the delayed-exit overshoot runs after
// every quota trip, the work-item split is uneven, and the run is
// multi-sector with per-sector variances.
func TestFusedRunEquivalence(t *testing.T) {
	cases := append(tableIConfigs[:len(tableIConfigs):len(tableIConfigs)], struct {
		name      string
		transform normal.Kind
		params    mt.Params
	}{"Ziggurat-MT19937", normal.Ziggurat, mt.MT19937Params})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Transform: tc.transform, MTParams: tc.params,
				WorkItems: 3, Scenarios: 1501, Sectors: 3,
				SectorVariances: []float64{0.5, 1.39, 4.0},
				Seed:            0xF05EDB17,
				BreakID:         2,
			}
			sameRun(t, "fused vs gated", gatedReference(t, cfg), runChunked(t, cfg))
		})
	}
}

// TestFusedRunTinyQuota drives the adversarial splits through the fused
// pipe against the gated oracle: quotas below one candidate block (a
// few short blocks per sector), quotas landing exactly on a block
// boundary, single-scenario runs where some work-items receive
// nothing, all with delayed exit enabled.
func TestFusedRunTinyQuota(t *testing.T) {
	for _, scenarios := range []int64{1, 3, 255, 256, 257, 513} {
		cfg := Config{
			Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
			WorkItems: 3, Scenarios: scenarios, Sectors: 2,
			SectorVariance: 0.9, Seed: 47, BreakID: 1,
		}
		sameRun(t, fmt.Sprintf("scenarios=%d fused vs gated", scenarios), gatedReference(t, cfg), runChunked(t, cfg))
	}
}

// TestFusedTelemetryCounters: the fused path (RunChunk) accounts for its direct
// writes — every block landing in the device buffer bumps
// engine.fused-blocks and every value engine.fused-direct. Every output
// of the block path lands through a block, so the direct writes equal
// the output total exactly.
func TestFusedTelemetryCounters(t *testing.T) {
	rec := telemetry.New(64)
	runChunked(t, Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT521Params,
		WorkItems: 2, Scenarios: 2000, Sectors: 2,
		SectorVariance: 1.39, Seed: 5, Telemetry: rec,
	})
	var blocks, direct int64
	for _, c := range rec.Counters() {
		switch {
		case strings.HasPrefix(c.Name(), "engine.fused-blocks"):
			blocks += c.Value()
		case strings.HasPrefix(c.Name(), "engine.fused-direct"):
			direct += c.Value()
		}
	}
	if blocks == 0 || direct == 0 {
		t.Fatalf("fused run recorded %d blocks / %d direct values, want both non-zero", blocks, direct)
	}
	if total := int64(2000 * 2); direct != total {
		t.Fatalf("fused-direct %d, want the output total %d", direct, total)
	}
}

// TestPropertyFusedEquivalence is the testing/quick sweep of the fused
// pipe: any small configuration — random transform, workload, split,
// seed and BreakID — produces the gated oracle's bytes.
func TestPropertyFusedEquivalence(t *testing.T) {
	kinds := []normal.Kind{normal.MarsagliaBray, normal.ICDFCUDA, normal.Ziggurat}
	f := func(scenRaw uint16, secRaw, wiRaw, kindRaw uint8, seed uint64) bool {
		cfg := Config{
			Transform:      kinds[int(kindRaw)%len(kinds)],
			MTParams:       mt.MT521Params,
			WorkItems:      int(wiRaw%4) + 1,
			Scenarios:      int64(scenRaw%1200) + 1,
			Sectors:        int(secRaw%3) + 1,
			SectorVariance: 1.39, Seed: seed,
			BreakID: int(seed % 3),
		}
		s, f := gatedReference(t, cfg).Data, runChunked(t, cfg).Data
		for i := range s {
			if s[i] != f[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
