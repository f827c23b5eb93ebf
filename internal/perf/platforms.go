// Package perf turns the mechanistic substrates (rejection rates from the
// real generators, lockstep divergence from internal/simt, burst transfer
// arithmetic from internal/fpga) into the wall-clock predictions of the
// paper's evaluation: Table III runtimes, the Fig. 5 localSize/globalSize
// sweeps, and Eq. (1).
//
// Modelling stance (also recorded in DESIGN.md): the *shape* of the
// results — who wins, by what factor, where the crossovers fall — comes
// from mechanisms: iterations per output are measured from the actual
// rejection sampler; the small-MT-versus-big-MT effect is a per-draw
// state-traffic cost; the ICDF-style effects are per-iteration datapath
// costs; lockstep divergence inflation comes from simulation. The
// *absolute scale* comes from per-platform calibration constants (sustained
// cycles per operation class), because the exact efficiency of a 2015
// OpenCL compiler on three different ISAs is not derivable from first
// principles. Every constant below documents its derivation.
package perf

import (
	"fmt"
	"sync"

	"github.com/decwi/decwi/internal/rng/gamma"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

// ICDFStyle distinguishes the two ICDF implementations of Table III on
// the fixed-architecture platforms (Section II-D3).
type ICDFStyle int

const (
	// ICDFStyleNone marks the Marsaglia-Bray configurations.
	ICDFStyleNone ICDFStyle = iota
	// ICDFStyleCUDA is the erfinv-based implementation (fast on
	// CPU/GPU/PHI; the style the paper ultimately uses there).
	ICDFStyleCUDA
	// ICDFStyleFPGA is the bit-level implementation emulated with
	// 32-bit integer shifts and masks (fast on FPGA, slow as scalar
	// emulation on CPU and Xeon Phi).
	ICDFStyleFPGA
)

// String names the style.
func (s ICDFStyle) String() string {
	switch s {
	case ICDFStyleCUDA:
		return "CUDA-style"
	case ICDFStyleFPGA:
		return "FPGA-style"
	default:
		return "n/a"
	}
}

// KernelConfig is one application configuration of Table I.
type KernelConfig struct {
	// Name is the paper's label (Config1..Config4).
	Name string
	// Transform is the uniform-to-normal transformation.
	Transform normal.Kind
	// MTParams selects MT19937 (624 states) or MT521 (17 states).
	MTParams mt.Params
	// FPGAWorkItems is the place-and-route outcome (6 or 8).
	FPGAWorkItems int
}

// The four configurations of Table I.
var (
	Config1 = KernelConfig{Name: "Config1", Transform: normal.MarsagliaBray, MTParams: mt.MT19937Params, FPGAWorkItems: 6}
	Config2 = KernelConfig{Name: "Config2", Transform: normal.MarsagliaBray, MTParams: mt.MT521Params, FPGAWorkItems: 6}
	Config3 = KernelConfig{Name: "Config3", Transform: normal.ICDFFPGA, MTParams: mt.MT19937Params, FPGAWorkItems: 8}
	Config4 = KernelConfig{Name: "Config4", Transform: normal.ICDFFPGA, MTParams: mt.MT521Params, FPGAWorkItems: 8}
)

// AllConfigs lists Table I in order.
var AllConfigs = []KernelConfig{Config1, Config2, Config3, Config4}

// BigMT reports whether the configuration uses the 624-state twister.
func (c KernelConfig) BigMT() bool { return c.MTParams.N > 100 }

// UniformDrawsPerIteration returns the expected Mersenne-Twister draws
// consumed per pipeline iteration, from the gating structure of
// Listing 2: the normal-transform streams always advance; the rejection
// uniform advances with probability P(normal valid); the correction
// uniform with probability P(output valid).
func (c KernelConfig) UniformDrawsPerIteration() float64 {
	switch c.Transform {
	case normal.MarsagliaBray:
		// 2 (polar inputs) + π/4 (u1 gate) + 1/(1+r) (u2 gate).
		return 2 + 0.785 + 1/(1+MeasuredIters(c.Transform).RejectionRate)
	case normal.Ziggurat:
		// 3 (candidate + two acceptance uniforms) + ≈0.975 (u1 gate on
		// the ziggurat's ~2.5 % per-cycle rejection) + 1/(1+r).
		return 3 + 0.975 + 1/(1+MeasuredIters(c.Transform).RejectionRate)
	default:
		// 1 (ICDF input) + ~1 (u1, ICDF almost always valid) + 1/(1+r).
		return 1 + 0.999 + 1/(1+MeasuredIters(c.Transform).RejectionRate)
	}
}

// IterStats carries the measured per-transform iteration statistics.
type IterStats struct {
	// RejectionRate is r in the Eq. (1) sense (extra iterations per
	// output); measured from the real pipeline at v = 1.39.
	RejectionRate float64
	// ItersPerOutput is 1+r.
	ItersPerOutput float64
}

var (
	iterOnce  sync.Once
	iterCache map[normal.Kind]IterStats
)

// MeasuredIters returns the iteration statistics for a transform at the
// paper's setup variance v=1.39, measured once from the actual generator
// (200k outputs, fixed seed — deterministic). The Marsaglia-Bray value
// reproduces the paper's 30.3 %; see EXPERIMENTS.md for the ICDF
// discussion.
func MeasuredIters(k normal.Kind) IterStats {
	iterOnce.Do(func() {
		iterCache = make(map[normal.Kind]IterStats)
		for _, tf := range []normal.Kind{normal.MarsagliaBray, normal.ICDFFPGA, normal.ICDFCUDA, normal.Ziggurat} {
			r := gamma.MeasureRejectionRate(tf, mt.MT521Params, 1.39, 200000, 20260706)
			iterCache[tf] = IterStats{RejectionRate: r, ItersPerOutput: 1 + r}
		}
	})
	s, ok := iterCache[k]
	if !ok {
		return IterStats{RejectionRate: 0, ItersPerOutput: 1}
	}
	return s
}

// Platform models one fixed-architecture accelerator of Section IV-A.
// LaneThroughput = HWLanes · ClockHz is the peak lane-cycles per second;
// the calibrated cost tables are *sustained cycles per lane per
// operation*, absorbing issue width, vectorization quality and memory
// behaviour of the 2015-era OpenCL stacks.
type Platform struct {
	// Name is CPU, GPU or PHI.
	Name string
	// ClockHz is the sustained clock.
	ClockHz float64
	// HWLanes is cores × SIMD lanes (CPU: 24 × AVX-8; PHI: 61 × 16;
	// GPU: one GK210 die of the K80, 2496 CUDA lanes — SDAccel-era
	// OpenCL enumerates each die as a separate device).
	HWLanes int
	// PartitionWidth is the lockstep width (Section II-B): warp 32 on
	// GPU, 512-bit/16-float implicit vectorization on PHI, AVX-8 on CPU.
	PartitionWidth int
	// OptimalLocalSize is the Fig. 5a outcome the sweep model must
	// reproduce (8 / 64 / 16).
	OptimalLocalSize int

	// MTDrawBig / MTDrawSmall: sustained cycles per uniform draw for the
	// 624-state and 17-state twisters. The gap is state traffic: four
	// MT19937 instances per work-item put ~160 MB of state behind
	// 65536 work-items on the GPU (global memory bound), while MT521
	// state lives in registers/L1 everywhere.
	MTDrawBig, MTDrawSmall float64
	// BodyMB / BodyICDFCUDA / BodyICDFFPGA: sustained cycles per
	// iteration for the transform+gamma datapath, excluding MT draws.
	// BodyICDFFPGA is the bit-level unit emulated with scalar 32-bit
	// integer ops — the vectorizers of the CPU and Phi OpenCL stacks do
	// not handle the leading-zero scan, hence the large values there and
	// the near-identical value on the GPU (Table III rows 3-6).
	BodyMB, BodyICDFCUDA, BodyICDFFPGA float64

	// LaunchOverheadPerGroup and OccupancyPenalty shape the Fig. 5a
	// localSize sweep (see LocalSizeRuntime).
	LaunchOverheadPerGroup float64
	OccupancyPenalty       float64
	// SaturationWI is the number of in-flight work-items needed to
	// saturate the device (latency hiding); shapes Fig. 5b.
	SaturationWI int
}

// The three fixed-architecture platforms, calibrated against Table III
// (fit residuals ≤ ~20 %; see perf tests and EXPERIMENTS.md for the
// cell-by-cell comparison).
var (
	// CPUPlatform: 2× Xeon E5-2670v3 (24 cores, AVX2) at 2.3 GHz.
	// Calibration: Table III shows the CPU insensitive to MT size
	// (3825≈3883, 807≈839 — large L3 absorbs the 624-word state) but
	// very sensitive to transform style (M-Bray's divergent
	// log/sqrt/div path 1865 cyc/iter; erfinv path 400; bit-level
	// emulation 1750 — unvectorized scalar integer code).
	CPUPlatform = Platform{
		Name: "CPU", ClockHz: 2.3e9, HWLanes: 192,
		PartitionWidth: 8, OptimalLocalSize: 8,
		MTDrawBig: 55, MTDrawSmall: 55,
		BodyMB: 1865, BodyICDFCUDA: 400, BodyICDFFPGA: 1748,
		LaunchOverheadPerGroup: 0.4, OccupancyPenalty: 0.05,
		SaturationWI: 1024,
	}
	// GPUPlatform: one GK210 die of the Tesla K80 at 562 MHz.
	// Calibration: the dominant Table III feature is the big-MT
	// penalty (Config1 2479 ms vs Config2 1011 ms): per-draw global-
	// memory state traffic, MTDrawBig−MTDrawSmall ≈ 530 sustained
	// cycles. Both ICDF styles cost the same (1177≈1181, 522≈521):
	// the GPU handles bit-level integer code as well as polynomials.
	GPUPlatform = Platform{
		Name: "GPU", ClockHz: 562e6, HWLanes: 2496,
		PartitionWidth: 32, OptimalLocalSize: 64,
		MTDrawBig: 575, MTDrawSmall: 45,
		BodyMB: 1887, BodyICDFCUDA: 928, BodyICDFFPGA: 932,
		LaunchOverheadPerGroup: 2.56, OccupancyPenalty: 0.02,
		SaturationWI: 32768,
	}
	// PHIPlatform: Xeon Phi 7120P (61 cores, 512-bit SIMD) at
	// 1.238 GHz. Calibration: moderate big-MT penalty (996→696 ms),
	// efficient erfinv path, and a catastrophic bit-level path
	// (2435 ms) — the implicit vectorizer cannot profitably vectorize
	// the shift/mask scan, as on the CPU but with a weaker scalar core.
	PHIPlatform = Platform{
		Name: "PHI", ClockHz: 1.238e9, HWLanes: 976,
		PartitionWidth: 16, OptimalLocalSize: 16,
		MTDrawBig: 120, MTDrawSmall: 30,
		BodyMB: 980, BodyICDFCUDA: 729, BodyICDFFPGA: 4215,
		LaunchOverheadPerGroup: 0.8, OccupancyPenalty: 0.05,
		SaturationWI: 8192,
	}
)

// FixedPlatforms lists the three lockstep platforms in Table III order.
var FixedPlatforms = []Platform{CPUPlatform, GPUPlatform, PHIPlatform}

// LaneThroughput returns peak lane-cycles per second.
func (p Platform) LaneThroughput() float64 { return float64(p.HWLanes) * p.ClockHz }

// mtDraw returns the per-draw cost for the configuration's MT size.
func (p Platform) mtDraw(big bool) float64 {
	if big {
		return p.MTDrawBig
	}
	return p.MTDrawSmall
}

// body returns the per-iteration datapath cost for a configuration and
// ICDF style.
func (p Platform) body(c KernelConfig, style ICDFStyle) (float64, error) {
	switch c.Transform {
	case normal.MarsagliaBray:
		if style != ICDFStyleNone {
			return 0, fmt.Errorf("perf: ICDF style %v invalid for Marsaglia-Bray config %s", style, c.Name)
		}
		return p.BodyMB, nil
	case normal.ICDFFPGA, normal.ICDFCUDA:
		switch style {
		case ICDFStyleCUDA:
			return p.BodyICDFCUDA, nil
		case ICDFStyleFPGA:
			return p.BodyICDFFPGA, nil
		default:
			return 0, fmt.Errorf("perf: ICDF config %s needs an explicit style", c.Name)
		}
	default:
		return 0, fmt.Errorf("perf: no cost model for transform %v", c.Transform)
	}
}
