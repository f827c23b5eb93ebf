package normal

import (
	"math"
	"math/bits"
	"sync"
)

// ICDF "FPGA-style": a bit-level inverse normal CDF following the
// hardware-efficient design of de Schryver et al. (IJRC 2012), which the
// paper uses on the FPGA (Section II-D3). The input word is decomposed as
//
//	bit 0            → sign (which half of the distribution)
//	leading-one scan → octave (non-uniform segmentation that halves
//	                   toward the tail, so precision follows the
//	                   curvature of Φ⁻¹)
//	next 3 bits      → one of 8 equal subsegments inside the octave
//	remaining bits   → the intra-segment offset t ∈ [0,1)
//
// and the output is a fixed-point quadratic c₀ + c₁t + c₂t² per
// (octave, subsegment). Everything is shifts, masks, comparisons and
// integer multiplies — exactly the operation mix that is nearly free on an
// FPGA and, per Table III, ~3.5x slower than the erfinv route when
// emulated with 32-bit unsigned integer arithmetic on CPU and Xeon Phi.
const (
	icdfOctaves    = 28 // octave k covers x ∈ [2^-(k+2), 2^-(k+1))
	icdfSegBits    = 3
	icdfSegsPerOct = 1 << icdfSegBits
	icdfFracBits   = 28 // fixed-point fraction bits of t and the coefficients
)

// icdfCoeff holds one segment's fixed-point quadratic (Q4.28).
type icdfCoeff struct{ c0, c1, c2 int64 }

var (
	icdfTable     [icdfOctaves][icdfSegsPerOct]icdfCoeff
	icdfSaturate  int64 // output for inputs deeper than the deepest octave
	icdfTableOnce sync.Once
)

// buildICDFTable fits each segment's quadratic through the Wichura oracle
// at t ∈ {0, ½, 1} and quantizes to Q4.28. This plays the role of the
// offline coefficient generation that precedes bitstream creation.
func buildICDFTable() {
	for k := 0; k < icdfOctaves; k++ {
		lo := math.Ldexp(1, -(k + 2)) // 2^-(k+2)
		dx := lo / icdfSegsPerOct
		for j := 0; j < icdfSegsPerOct; j++ {
			x0 := lo + float64(j)*dx
			z0 := InverseNormalCDF(x0)
			zm := InverseNormalCDF(x0 + 0.5*dx)
			z1 := InverseNormalCDF(x0 + dx)
			c2 := 2 * (z0 + z1 - 2*zm)
			c1 := z1 - z0 - c2
			c0 := z0
			icdfTable[k][j] = icdfCoeff{
				c0: int64(math.Round(c0 * (1 << icdfFracBits))),
				c1: int64(math.Round(c1 * (1 << icdfFracBits))),
				c2: int64(math.Round(c2 * (1 << icdfFracBits))),
			}
		}
	}
	// Saturation value: the left edge of the deepest octave.
	icdfSaturate = int64(math.Round(InverseNormalCDF(math.Ldexp(1, -(icdfOctaves+1))) * (1 << icdfFracBits)))
}

// ICDFFPGAStep transforms one raw word into a normal variate using only
// bit-level and integer operations (plus one final int→float conversion).
// ok is false only when the input lies beyond the deepest octave and the
// output had to saturate — a ~2^-29 probability event, mirroring the rare
// invalidation of the hardware unit that Section II-E accounts for.
func ICDFFPGAStep(w uint32) (z float32, ok bool) {
	icdfTableOnce.Do(buildICDFTable)

	sign := w&1 != 0
	h := w >> 1 // 31-bit magnitude selecting x ∈ (0, 0.5)

	var q int64
	ok = true
	if h == 0 {
		q = icdfSaturate
		ok = false
	} else {
		p := 31 - bits.LeadingZeros32(h) // leading-one position, 0..30
		k := 30 - p                      // octave index
		if k >= icdfOctaves {
			q = icdfSaturate
			ok = false
		} else {
			// p ≥ 3 whenever k ≤ 27, so the subsegment bits exist.
			j := (h >> uint(p-icdfSegBits)) & (icdfSegsPerOct - 1)
			rbits := uint(p - icdfSegBits)
			rem := int64(h & ((1 << rbits) - 1))
			var t int64 // Q0.28 intra-segment offset
			if rbits <= icdfFracBits {
				t = rem << (icdfFracBits - rbits)
			} else {
				t = rem >> (rbits - icdfFracBits)
			}
			c := &icdfTable[k][j]
			r := c.c2
			r = c.c1 + ((r * t) >> icdfFracBits)
			r = c.c0 + ((r * t) >> icdfFracBits)
			q = r
		}
	}
	zf := float32(q) * float32(1.0/(1<<icdfFracBits))
	if sign {
		zf = -zf // upper half of the distribution
	}
	return zf, ok
}
