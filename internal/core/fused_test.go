package core

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
)

// TestFusedRunEquivalence is this PR's tentpole invariant on the
// transport axis: the fused pipe (Run dispatching straight into the
// RunChunk machinery, candidate blocks landing in the device buffer at
// their layout offsets) produces output bitwise-identical to Listing 1's
// streamed dataflow — one GammaRNG and one Transfer process per
// work-item joined by an hls::stream — for every Table I config at a
// fixed seed. BreakID is non-zero so the delayed-exit overshoot
// semantics cross the transport boundary too, the work-item split is
// uneven, and the run is multi-sector with per-sector variances.
func TestFusedRunEquivalence(t *testing.T) {
	cases := append(tableIConfigs[:len(tableIConfigs):len(tableIConfigs)], struct {
		name      string
		transform normal.Kind
		params    mt.Params
	}{"Ziggurat-MT19937", normal.Ziggurat, mt.MT19937Params})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				Transform: tc.transform, MTParams: tc.params,
				WorkItems: 3, Scenarios: 1501, Sectors: 3,
				SectorVariances: []float64{0.5, 1.39, 4.0},
				Seed:            0xF05EDB17,
				BreakID:         2,
			}
			run := func(streamed bool) *RunResult {
				cfg := base
				cfg.StreamedTransport = streamed
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
			streamed := run(true)
			fused := run(false)
			if len(streamed.Data) != len(fused.Data) {
				t.Fatalf("length mismatch: streamed %d, fused %d", len(streamed.Data), len(fused.Data))
			}
			for i := range streamed.Data {
				if streamed.Data[i] != fused.Data[i] {
					t.Fatalf("Data[%d]: streamed %x, fused %x", i, streamed.Data[i], fused.Data[i])
				}
			}
			// The pipeline-side telemetry is transport-independent; only
			// the stream-side stats (Bursts, FlushedWords, StreamHigh)
			// exist solely on the streamed path.
			for w := range streamed.PerWI {
				s, f := streamed.PerWI[w], fused.PerWI[w]
				if s.Cycles != f.Cycles || s.Accepted != f.Accepted || s.Overshoot != f.Overshoot || s.Scenarios != f.Scenarios {
					t.Fatalf("work-item %d stats: streamed {cycles %d accepted %d overshoot %d}, fused {%d %d %d}",
						w, s.Cycles, s.Accepted, s.Overshoot, f.Cycles, f.Accepted, f.Overshoot)
				}
				if s.Bursts == 0 {
					t.Fatalf("work-item %d: streamed path formed no bursts", w)
				}
				if f.Bursts != 0 {
					t.Fatalf("work-item %d: fused path reported %d bursts; it has no stream", w, f.Bursts)
				}
			}
		})
	}
}

// TestFusedRunTinyQuota drives the adversarial splits through both
// transports: quotas below one candidate block (a few short blocks per
// sector), quotas
// landing exactly on a block boundary, single-scenario runs where some
// work-items receive nothing, all with delayed exit enabled.
func TestFusedRunTinyQuota(t *testing.T) {
	for _, scenarios := range []int64{1, 3, 255, 256, 257, 513} {
		cfg := Config{
			Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
			WorkItems: 3, Scenarios: scenarios, Sectors: 2,
			SectorVariance: 0.9, Seed: 47, BreakID: 1,
		}
		run := func(streamed bool) []float32 {
			c := cfg
			c.StreamedTransport = streamed
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
		s, f := run(true), run(false)
		for i := range s {
			if s[i] != f[i] {
				t.Fatalf("scenarios=%d Data[%d]: streamed %x, fused %x", scenarios, i, s[i], f[i])
			}
		}
	}
}

// TestFusedTelemetryCounters: the fused path accounts for its direct
// writes — every block landing in the device buffer bumps
// engine.fused-blocks and every value engine.fused-direct. Every output
// of the block path lands through a block, so the direct writes equal
// the output total exactly. The streamed run must not create fused
// counters at all.
func TestFusedTelemetryCounters(t *testing.T) {
	run := func(streamed bool) (int64, int64, []string) {
		rec := telemetry.New(64)
		e, err := NewEngine(Config{
			Transform: normal.MarsagliaBray, MTParams: mt.MT521Params,
			WorkItems: 2, Scenarios: 2000, Sectors: 2,
			SectorVariance: 1.39, Seed: 5,
			StreamedTransport: streamed, Telemetry: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var blocks, direct int64
		var names []string
		for _, c := range rec.Counters() {
			names = append(names, c.Name())
			switch {
			case strings.HasPrefix(c.Name(), "engine.fused-blocks"):
				blocks += c.Value()
			case strings.HasPrefix(c.Name(), "engine.fused-direct"):
				direct += c.Value()
			}
		}
		return blocks, direct, names
	}
	blocks, direct, _ := run(false)
	if blocks == 0 || direct == 0 {
		t.Fatalf("fused run recorded %d blocks / %d direct values, want both non-zero", blocks, direct)
	}
	if total := int64(2000 * 2); direct != total {
		t.Fatalf("fused-direct %d, want the output total %d", direct, total)
	}
	if blocks, direct, names := run(true); blocks != 0 || direct != 0 {
		t.Fatalf("streamed run created fused counters (%d blocks, %d direct): %v", blocks, direct, names)
	}
}

// TestPropertyFusedEquivalence is the testing/quick sweep over the
// transport axis: any small configuration — random transform, workload,
// split, seed and BreakID — produces the same bytes streamed and fused.
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
		run := func(streamed bool) []float32 {
			c := cfg
			c.StreamedTransport = streamed
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
		s, f := run(true), run(false)
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
