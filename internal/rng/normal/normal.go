// Package normal implements the uniform-to-normal transformations of the
// case study (paper Section II-D):
//
//   - Marsaglia-Bray polar method (rejection-based; Config1/Config2): two
//     uniform inputs, one output, log/sqrt/division arithmetic, rejection
//     rate 1 − π/4 ≈ 21.5 %.
//   - ICDF "FPGA-style" (Config3/Config4 on FPGA): bit-level hierarchical
//     segmentation with fixed-point quadratic interpolation, after
//     de Schryver et al. — only logic operations, ideal for FPGAs, slow as
//     a scalar integer emulation on CPUs.
//   - ICDF "CUDA-style" (Config3/Config4 on CPU/GPU/PHI): a branch-minimised
//     erfcinv following Giles' erfinv approximation and the identity
//     erfcinv(x) = erfinv(1−x), mirroring Nvidia's _curand_normal_icdf.
//   - Wichura's AS241 double-precision inverse normal CDF, used as the
//     coefficient generator and accuracy oracle for everything above.
//   - The Marsaglia-Tsang ziggurat, the extension target the paper's
//     conclusion names (not a Table I configuration).
//
// Every transform is available in two shapes: a pure step function
// (word(s) in, candidate out) that the generator's one-word path and the
// co-simulation call per cycle, and a batch fill over whole word blocks
// (FillNormal) that the block path uses. The two agree bit for bit.
package normal

import (
	"math"

	"github.com/decwi/decwi/internal/rng"
)

// Kind enumerates the uniform-to-normal transformations.
type Kind int

const (
	// MarsagliaBray is the rejection-based polar transform.
	MarsagliaBray Kind = iota
	// ICDFFPGA is the bit-level segmented inverse-CDF transform.
	ICDFFPGA
	// ICDFCUDA is the erfinv-based inverse-CDF transform.
	ICDFCUDA
	// Ziggurat is the Marsaglia-Tsang ziggurat rejection method — not a
	// Table I configuration, but the extension target the paper's
	// conclusion names (another rejection algorithm with data-dependent
	// branches that the decoupled design absorbs unchanged).
	Ziggurat
)

// String returns the conventional name of the transform.
func (k Kind) String() string {
	switch k {
	case MarsagliaBray:
		return "Marsaglia-Bray"
	case ICDFFPGA:
		return "ICDF FPGA-style"
	case ICDFCUDA:
		return "ICDF CUDA-style"
	case Ziggurat:
		return "Ziggurat"
	default:
		return "unknown"
	}
}

// Rejecting reports whether the transform can invalidate its output, i.e.
// whether downstream Mersenne-Twisters must be gated on its validity flag.
func (k Kind) Rejecting() bool { return k == MarsagliaBray || k == Ziggurat }

// UniformsPerCandidate returns how many raw uniform words one candidate
// consumes. The polar method needs two (the paper splits them onto two
// parallel dynamically-created Mersenne-Twisters), the ziggurat three,
// the ICDF variants one.
func (k Kind) UniformsPerCandidate() int {
	switch k {
	case MarsagliaBray:
		return 2
	case Ziggurat:
		return 3
	default:
		return 1
	}
}

// PolarStep performs one Marsaglia-Bray polar attempt from two raw words.
// It is branch-free up to the single validity predicate, exactly as the
// pipelined FPGA block computes it: everything is evaluated, validity is
// decided afterwards. Only the first of the two mathematical outputs is
// used (paper: "it also needs two input uniform RNs to generate one
// output").
func PolarStep(w1, w2 uint32) (z float32, ok bool) {
	v1 := rng.U32ToSigned(w1)
	v2 := rng.U32ToSigned(w2)
	s := v1*v1 + v2*v2
	ok = s > 0 && s < 1
	// Compute unconditionally; clamp s into the valid domain so the
	// arithmetic units never see log(0) or a negative operand. Hardware
	// pipelines do the same — the result is simply discarded when !ok.
	sc := s
	if sc <= 0 || sc >= 1 {
		sc = 0.5
	}
	return v1 * radius(float64(sc)), ok
}

// radius is the polar method's float32(√(−2·ln s/s)) for s ∈ (0,1).
func radius(s float64) float32 {
	return float32(math.Sqrt(-2 * math.Log(s) / s))
}
