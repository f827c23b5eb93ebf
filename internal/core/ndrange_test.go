package core

import (
	"math"
	"testing"

	"github.com/decwi/decwi/internal/fpga"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/stats"
)

func ndBase() NDRangeConfig {
	return NDRangeConfig{
		Config: Config{
			Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
			Scenarios: 8192, Sectors: 2, SectorVariance: 1.39, Seed: 4,
		},
		WorkGroups: 2, LocalSize: 4,
	}
}

func TestNDRangeValidation(t *testing.T) {
	if _, err := RunNDRange(ndBase()); err != nil {
		t.Fatal(err)
	}
	bad := ndBase()
	bad.WorkGroups = 0
	if _, err := RunNDRange(bad); err == nil {
		t.Error("zero work-groups should fail")
	}
	bad = ndBase()
	bad.LocalSize = 0
	if _, err := RunNDRange(bad); err == nil {
		t.Error("zero localSize should fail")
	}
	bad = ndBase()
	bad.SectorVariance = -1
	if _, err := RunNDRange(bad); err == nil {
		t.Error("embedded config validation should run")
	}
}

// TestNDRangeProducesCompleteData: every slot is a positive gamma value
// and all per-CU telemetry exists.
func TestNDRangeProducesCompleteData(t *testing.T) {
	res, err := RunNDRange(ndBase())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 8192*2 {
		t.Fatalf("data %d", len(res.Data))
	}
	for i, v := range res.Data {
		if !(v > 0) {
			t.Fatalf("slot %d = %g", i, v)
		}
	}
	if len(res.CUCycles) != 2 || res.MaxCUCycles() == 0 {
		t.Fatalf("CU telemetry %v", res.CUCycles)
	}
	if res.ScatteredStores() != 8192*2 {
		t.Fatalf("scattered stores %d, want every store", res.ScatteredStores())
	}
}

// TestNDRangeDistribution: the work-group formulation produces the same
// gamma distribution as the Task formulation.
func TestNDRangeDistribution(t *testing.T) {
	cfg := ndBase()
	cfg.Scenarios = 60000
	cfg.Sectors = 1
	cfg.Transform = normal.MarsagliaBray
	res, err := RunNDRange(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := stats.NewGammaDist(1/1.39, 1.39)
	if err != nil {
		t.Fatal(err)
	}
	ks := stats.KSTestOneSample(stats.Float32To64(res.Data), g.CDF)
	if ks.PValue < 0.001 {
		t.Fatalf("NDRange output rejected by KS: D=%g p=%g", ks.D, ks.PValue)
	}
}

// TestNDRangeGranularityInvariance is the paper's Section III-A point:
// with the number of pipelines (work-groups) fixed, the compute cycles do
// not depend on how the work is sliced into work-items.
func TestNDRangeGranularityInvariance(t *testing.T) {
	cycles := func(localSize int) float64 {
		cfg := ndBase()
		cfg.WorkGroups = 4
		cfg.LocalSize = localSize
		cfg.Scenarios = 32768
		cfg.Sectors = 1
		res, err := RunNDRange(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.MaxCUCycles())
	}
	c1, c8, c64 := cycles(1), cycles(8), cycles(64)
	if math.Abs(c8-c1)/c1 > 0.02 || math.Abs(c64-c1)/c1 > 0.02 {
		t.Fatalf("cycles should be granularity-invariant: ls=1 %g, ls=8 %g, ls=64 %g", c1, c8, c64)
	}
}

// TestNDRangePipelineScaling: doubling the number of work-groups halves
// the per-pipeline cycle count — "what directly affects the overall
// runtime is the number of pipelines instantiated in parallel".
func TestNDRangePipelineScaling(t *testing.T) {
	cycles := func(groups int) float64 {
		cfg := ndBase()
		cfg.WorkGroups = groups
		cfg.LocalSize = 4
		cfg.Scenarios = 32768
		cfg.Sectors = 1
		res, err := RunNDRange(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.MaxCUCycles())
	}
	c2, c4 := cycles(2), cycles(4)
	if ratio := c2 / c4; math.Abs(ratio-2) > 0.05 {
		t.Fatalf("2→4 work-groups should halve cycles, ratio %.3f", ratio)
	}
}

// TestNDRangeVsTaskCompute: at equal pipeline counts the two formulations
// need the same compute cycles (time multiplexing has no divergence
// penalty — the pipeline is never idle), so the paper's preference for
// the Task form is about transfers, not compute: the co-simulation of
// the Task form's streams and Transfer engines forms full bursts.
func TestNDRangeVsTaskCompute(t *testing.T) {
	const scen = 32768
	nd := ndBase()
	nd.WorkGroups = 4
	nd.LocalSize = 8
	nd.Scenarios = scen
	nd.Sectors = 1
	ndRes, err := RunNDRange(nd)
	if err != nil {
		t.Fatal(err)
	}

	taskRes := runChunked(t, Config{
		Transform: nd.Transform, MTParams: nd.MTParams,
		WorkItems: 4, Scenarios: scen, Sectors: 1,
		SectorVariance: 1.39, Seed: 4,
	})
	ndC := float64(ndRes.MaxCUCycles())
	taskC := float64(maxCycles(taskRes.PerWI))
	if math.Abs(ndC-taskC)/taskC > 0.03 {
		t.Fatalf("equal-pipeline compute cycles should match: NDRange %g vs Task %g", ndC, taskC)
	}
	// But the Task form's Transfer engines form real bursts while
	// NDRange scatters.
	cosim, err := fpga.RunCoSim(fpga.CoSimConfig{
		WorkItems: 4, Quota: scen / 4,
		Transform: nd.Transform, MTParams: nd.MTParams, Variance: 1.39, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cosim.Bursts == 0 {
		t.Fatal("task engine should issue bursts")
	}
	if ndRes.ScatteredStores() != scen {
		t.Fatalf("NDRange scattered %d stores, want %d", ndRes.ScatteredStores(), scen)
	}
}

func BenchmarkNDRange(b *testing.B) {
	cfg := ndBase()
	cfg.Scenarios = 16384
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := RunNDRange(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
