package perf

import (
	"math"
	"testing"
	"time"

	"github.com/decwi/decwi/internal/fpga"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/simt"
)

func TestMeasuredIters(t *testing.T) {
	mb := MeasuredIters(normal.MarsagliaBray)
	if math.Abs(mb.RejectionRate-0.303) > 0.01 {
		t.Fatalf("Marsaglia-Bray combined rejection %f, paper reports 0.303", mb.RejectionRate)
	}
	ic := MeasuredIters(normal.ICDFFPGA)
	if ic.RejectionRate <= 0 || ic.RejectionRate > 0.08 {
		t.Fatalf("ICDF rejection %f outside plausible band", ic.RejectionRate)
	}
	if mb.ItersPerOutput != 1+mb.RejectionRate {
		t.Fatal("ItersPerOutput identity broken")
	}
	// Unknown transform falls back to the no-rejection identity.
	if s := MeasuredIters(normal.Kind(99)); s.ItersPerOutput != 1 {
		t.Fatalf("unknown transform: %+v", s)
	}
}

func TestUniformDrawsPerIteration(t *testing.T) {
	if d := Config1.UniformDrawsPerIteration(); math.Abs(d-3.55) > 0.05 {
		t.Fatalf("M-Bray draws/iter %f, want ≈3.55 (2 + π/4 + 1/1.303)", d)
	}
	if d := Config3.UniformDrawsPerIteration(); math.Abs(d-2.98) > 0.05 {
		t.Fatalf("ICDF draws/iter %f, want ≈2.98", d)
	}
}

func TestBodyStyleValidation(t *testing.T) {
	if _, err := CPUPlatform.CyclesPerIteration(Config1, ICDFStyleCUDA); err == nil {
		t.Error("ICDF style on a Marsaglia-Bray config should fail")
	}
	if _, err := CPUPlatform.CyclesPerIteration(Config3, ICDFStyleNone); err == nil {
		t.Error("missing ICDF style should fail")
	}
	if _, err := CPUPlatform.KernelRuntime(fpga.PaperWorkload, Config1, ICDFStyleNone, 0, 8); err == nil {
		t.Error("zero globalSize should fail")
	}
	if _, err := CPUPlatform.KernelRuntime(fpga.PaperWorkload, Config1, ICDFStyleNone, 65536, 0); err == nil {
		t.Error("zero localSize should fail")
	}
}

// TestTableIIIAbsolute: every modelled cell lands within ±25 % of the
// published Table III (the calibration-fit residual band documented in
// EXPERIMENTS.md).
func TestTableIIIAbsolute(t *testing.T) {
	rows, err := Table3(fpga.PaperWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperTable3) {
		t.Fatalf("%d rows, want %d", len(rows), len(PaperTable3))
	}
	for i, row := range rows {
		paper := PaperTable3[i]
		if row.Label() != paper.Label {
			t.Fatalf("row %d label %q vs paper %q", i, row.Label(), paper.Label)
		}
		check := func(name string, got float64, want float64) {
			if want == 0 {
				return
			}
			if rel := math.Abs(got-want) / want; rel > 0.25 {
				t.Errorf("%s %s: model %.0f ms vs paper %.0f ms (%.0f%% off)",
					row.Label(), name, got, want, 100*rel)
			}
		}
		check("CPU", row.CPU.Seconds()*1000, paper.CPU)
		check("GPU", row.GPU.Seconds()*1000, paper.GPU)
		check("PHI", row.PHI.Seconds()*1000, paper.PHI)
		check("FPGA", row.FPGA.Seconds()*1000, paper.FPGA)
	}
}

// TestTableIIIShape asserts the paper's qualitative claims, which must
// hold exactly (not merely within a fit tolerance).
func TestTableIIIShape(t *testing.T) {
	rows, err := Table3(fpga.PaperWorkload)
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string) Table3Row {
		for _, r := range rows {
			if r.Label() == label {
				return r
			}
		}
		t.Fatalf("row %q missing", label)
		return Table3Row{}
	}
	c1 := get("Config1")
	c2 := get("Config2")
	c3c := get("Config3: ICDF CUDA-style")
	c3f := get("Config3: ICDF FPGA-style")
	c4c := get("Config4: ICDF CUDA-style")
	c4f := get("Config4: ICDF FPGA-style")

	// Config1: "FPGA achieves the best performance ... 5.5x/3.5x/1.4x
	// speedup vs CPU/GPU/PHI".
	if !(c1.FPGA < c1.PHI && c1.PHI < c1.GPU && c1.GPU < c1.CPU) {
		t.Errorf("Config1 ordering broken: FPGA %v PHI %v GPU %v CPU %v", c1.FPGA, c1.PHI, c1.GPU, c1.CPU)
	}
	spd := func(a, b Table3Row, col func(Table3Row) float64) float64 { return col(a) / col(b) }
	cpu := func(r Table3Row) float64 { return r.CPU.Seconds() }
	gpu := func(r Table3Row) float64 { return r.GPU.Seconds() }
	phi := func(r Table3Row) float64 { return r.PHI.Seconds() }
	fpgaCol := func(r Table3Row) float64 { return r.FPGA.Seconds() }
	if s := cpu(c1) / fpgaCol(c1); s < 4.5 || s > 6.5 {
		t.Errorf("Config1 FPGA speedup vs CPU %.2f, paper 5.5", s)
	}
	if s := gpu(c1) / fpgaCol(c1); s < 2.5 || s > 4.5 {
		t.Errorf("Config1 FPGA speedup vs GPU %.2f, paper 3.5", s)
	}
	if s := phi(c1) / fpgaCol(c1); s < 1.1 || s > 1.7 {
		t.Errorf("Config1 FPGA speedup vs PHI %.2f, paper 1.4", s)
	}

	// Config2: "comparable runtime to PHI".
	if rel := phi(c2) / fpgaCol(c2); rel < 0.75 || rel > 1.3 {
		t.Errorf("Config2 FPGA vs PHI ratio %.2f, paper finds them comparable", rel)
	}
	// The small twister helps GPU (~2x) and PHI, not the CPU.
	if s := spd(c1, c2, gpu); s < 1.6 {
		t.Errorf("GPU Config1/Config2 ratio %.2f, paper 2.45", s)
	}
	if s := spd(c1, c2, cpu); math.Abs(s-1) > 0.06 {
		t.Errorf("CPU should be insensitive to MT size, ratio %.2f", s)
	}

	// Config3/4 CUDA-style: PHI leads; FPGA achieves 0.9x / 0.7x of PHI.
	if r := phi(c3c) / fpgaCol(c3c); r < 0.75 || r > 1.0 {
		t.Errorf("Config3 FPGA=%.2fx of PHI, paper 0.9x", r)
	}
	if r := phi(c4c) / fpgaCol(c4c); r < 0.55 || r > 0.85 {
		t.Errorf("Config4 FPGA=%.2fx of PHI, paper 0.7x", r)
	}
	// vs GPU: 1.8x in Config3, 0.8x in Config4.
	if r := gpu(c3c) / fpgaCol(c3c); r < 1.4 || r > 2.3 {
		t.Errorf("Config3 FPGA speedup vs GPU %.2f, paper 1.8", r)
	}
	if r := gpu(c4c) / fpgaCol(c4c); r < 0.6 || r > 1.0 {
		t.Errorf("Config4 FPGA=%.2fx faster than GPU, paper 0.8x", r)
	}
	// FPGA beats the CPU in every configuration.
	for _, r := range rows {
		if r.FPGA >= r.CPU {
			t.Errorf("%s: FPGA %v not faster than CPU %v", r.Label(), r.FPGA, r.CPU)
		}
	}

	// ICDF styles: bit-level emulation is ≥3x slower on CPU and PHI,
	// indistinguishable on GPU (Table III rows 3-6).
	if r := cpu(c3f) / cpu(c3c); r < 3 {
		t.Errorf("CPU FPGA-style/CUDA-style ratio %.2f, paper 3.5", r)
	}
	if r := phi(c3f) / phi(c3c); r < 3 {
		t.Errorf("PHI FPGA-style/CUDA-style ratio %.2f, paper 4.4", r)
	}
	if r := gpu(c3f) / gpu(c3c); math.Abs(r-1) > 0.02 {
		t.Errorf("GPU should not distinguish ICDF styles, ratio %.2f", r)
	}
	if r := gpu(c4f) / gpu(c4c); math.Abs(r-1) > 0.02 {
		t.Errorf("GPU should not distinguish ICDF styles (Config4), ratio %.2f", r)
	}
	_ = c4f
}

// TestFig5aOptima: the localSize sweep recovers the paper's optima —
// CPU 8, GPU 64, PHI 16 — for both plotted configurations.
func TestFig5aOptima(t *testing.T) {
	sizes := []int{2, 4, 8, 16, 32, 64, 128, 256}
	pts, err := LocalSizeSweep(fpga.PaperWorkload, []KernelConfig{Config1, Config3}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"CPU": 8, "GPU": 64, "PHI": 16}
	for platform, opt := range want {
		for _, cfg := range []string{"Config1", "Config3"} {
			got, _ := OptimalLocalSize(pts, platform, cfg)
			if got != opt {
				t.Errorf("%s/%s: optimal localSize %d, paper derives %d", platform, cfg, got, opt)
			}
		}
	}
}

// TestFig5aShape: away from the optimum the curve rises on both sides
// (the U shape of Fig. 5a).
func TestFig5aShape(t *testing.T) {
	sizes := []int{2, 8, 64, 512}
	pts, err := LocalSizeSweep(fpga.PaperWorkload, []KernelConfig{Config1}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	rt := func(platform string, ls int) float64 {
		for _, p := range pts {
			if p.Platform == platform && p.X == ls {
				return p.Runtime.Seconds()
			}
		}
		t.Fatalf("missing point %s/%d", platform, ls)
		return 0
	}
	for _, platform := range []string{"CPU", "GPU", "PHI"} {
		mid := rt(platform, 64)
		if platform == "CPU" || platform == "PHI" {
			mid = rt(platform, 8)
		}
		if rt(platform, 2) <= mid {
			t.Errorf("%s: tiny localSize should be slower than the optimum region", platform)
		}
		if rt(platform, 512) <= mid {
			t.Errorf("%s: huge localSize should be slower than the optimum region", platform)
		}
	}
}

// TestFig5bConfirmsGlobalSize: 65536 sits on the plateau — runtime at
// 65536 is within a few percent of the best in the sweep, and small
// global sizes are clearly worse (the Fig. 5b confirmation).
func TestFig5bConfirmsGlobalSize(t *testing.T) {
	sizes := []int{1024, 4096, 16384, 65536, 262144}
	pts, err := GlobalSizeSweep(fpga.PaperWorkload, []KernelConfig{Config1, Config3}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, platform := range []string{"CPU", "GPU", "PHI"} {
		for _, cfg := range []string{"Config1", "Config3"} {
			var at65536, best, atSmall float64
			best = math.Inf(1)
			for _, p := range pts {
				if p.Platform != platform || p.Config != cfg {
					continue
				}
				s := p.Runtime.Seconds()
				if s < best {
					best = s
				}
				if p.X == 65536 {
					at65536 = s
				}
				if p.X == 1024 {
					atSmall = s
				}
			}
			if at65536 > best*1.05 {
				t.Errorf("%s/%s: 65536 is %.1f%% off the plateau", platform, cfg, 100*(at65536/best-1))
			}
			if platform != "CPU" && atSmall < at65536*1.5 {
				t.Errorf("%s/%s: globalSize 1024 should starve the device (%.3fs vs %.3fs)",
					platform, cfg, atSmall, at65536)
			}
		}
	}
}

// TestDivergenceInflationProperties: ≥1, grows with width and rejection,
// shrinks with quota, and the degenerate arguments return exactly 1.
func TestDivergenceInflationProperties(t *testing.T) {
	if DivergenceInflation(1, 0.3, 100) != 1 {
		t.Error("width 1 must have no inflation")
	}
	if DivergenceInflation(32, 0, 100) != 1 {
		t.Error("zero rejection must have no inflation")
	}
	if DivergenceInflation(32, 0.3, 0) != 1 {
		t.Error("zero quota must have no inflation")
	}
	i8 := DivergenceInflation(8, 0.3, 1000)
	i32 := DivergenceInflation(32, 0.3, 1000)
	if !(i32 > i8 && i8 > 1) {
		t.Errorf("inflation should grow with width: %f vs %f", i8, i32)
	}
	if DivergenceInflation(32, 0.05, 1000) >= i32 {
		t.Error("inflation should grow with rejection rate")
	}
	if DivergenceInflation(32, 0.3, 100000) >= DivergenceInflation(32, 0.3, 100) {
		t.Error("inflation should shrink with quota")
	}
}

// TestDivergenceInflationMatchesSimt: the Gumbel approximation agrees
// with the empirical lockstep simulation within a modest band at a small
// quota where the effect is visible.
func TestDivergenceInflationMatchesSimt(t *testing.T) {
	const quota = 200
	emp, err := simt.SimulatePartitions(simt.SimConfig{
		Transform: normal.MarsagliaBray, MTParams: Config2.MTParams,
		Variance: 1.39, Width: 32, Partitions: 16, Quota: quota, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ana := DivergenceInflation(32, MeasuredIters(normal.MarsagliaBray).RejectionRate, quota)
	if math.Abs(emp.LockstepInflation-ana)/(ana-1) > 0.5 {
		t.Fatalf("analytic inflation %f vs empirical %f disagree beyond 50%% of the excess",
			ana, emp.LockstepInflation)
	}
}

func BenchmarkTable3(b *testing.B) {
	MeasuredIters(normal.MarsagliaBray) // pre-warm the measurement cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table3(fpga.PaperWorkload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalSizeSweep(b *testing.B) {
	MeasuredIters(normal.MarsagliaBray)
	sizes := []int{2, 4, 8, 16, 32, 64, 128, 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LocalSizeSweep(fpga.PaperWorkload, AllConfigs, sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTunedRuntimeNormalization: at the platform's optimal geometry the
// sweep factors are exactly 1, so Table III is the tuned configuration
// with no residual tuning penalty baked in.
func TestTunedRuntimeNormalization(t *testing.T) {
	for _, p := range FixedPlatforms {
		d, err := p.KernelRuntime(fpga.PaperWorkload, Config1, ICDFStyleNone, 65536, p.OptimalLocalSize)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d.LocalSizeFactor-1) > 1e-12 {
			t.Errorf("%s: localSize factor %g at the optimum", p.Name, d.LocalSizeFactor)
		}
		if math.Abs(d.GlobalFactor-1) > 1e-12 {
			t.Errorf("%s: globalSize factor %g at 65536", p.Name, d.GlobalFactor)
		}
		tuned, err := p.TunedRuntime(fpga.PaperWorkload, Config1, ICDFStyleNone)
		if err != nil {
			t.Fatal(err)
		}
		if tuned.Runtime != d.Runtime {
			t.Errorf("%s: TunedRuntime disagrees with explicit optimal geometry", p.Name)
		}
	}
}

// TestPlatformSpecsSanity pins the hardware constants to Section IV-A.
func TestPlatformSpecsSanity(t *testing.T) {
	if CPUPlatform.PartitionWidth != 8 || CPUPlatform.HWLanes != 24*8 {
		t.Error("CPU: 24 Haswell cores with AVX-8")
	}
	if GPUPlatform.PartitionWidth != 32 || GPUPlatform.HWLanes != 2496 {
		t.Error("GPU: one GK210 die, warp 32")
	}
	if PHIPlatform.PartitionWidth != 16 || PHIPlatform.HWLanes != 61*16 {
		t.Error("PHI: 61 cores, 512-bit SIMD")
	}
	for _, p := range FixedPlatforms {
		if p.LaneThroughput() <= 0 {
			t.Errorf("%s: throughput", p.Name)
		}
	}
}

// TestZigguratExtensionCosting: the extension transform is costable for
// draws/iteration (it is not part of Table III, but Generate and the
// divergence sweeps rely on its iteration statistics).
func TestZigguratExtensionCosting(t *testing.T) {
	zig := KernelConfig{Name: "Z", Transform: normal.Ziggurat, MTParams: Config2.MTParams, FPGAWorkItems: 9}
	d := zig.UniformDrawsPerIteration()
	// 3 transform words + gated u1 + gated u2 ≈ 4.9.
	if d < 4.6 || d > 5.1 {
		t.Fatalf("ziggurat draws/iter %f", d)
	}
	it := MeasuredIters(normal.Ziggurat)
	if it.RejectionRate < 0.02 || it.RejectionRate > 0.09 {
		t.Fatalf("ziggurat combined rejection %f", it.RejectionRate)
	}
}

// OptimalLocalSize scans a sweep and returns the localSize with the
// lowest runtime for a platform/config pair (the derivation step of
// Section IV-B: localSize_CPU = 8, localSize_GPU = 64, localSize_PHI = 16).
func OptimalLocalSize(points []Fig5Point, platform, config string) (int, time.Duration) {
	best, bestRt := 0, time.Duration(1<<62)
	for _, p := range points {
		if p.Platform == platform && p.Config == config && p.Runtime < bestRt {
			best, bestRt = p.X, p.Runtime
		}
	}
	return best, bestRt
}
