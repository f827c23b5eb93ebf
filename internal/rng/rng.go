// Package rng defines the source interface and numeric conversions shared
// by the random-number-generation stack of the decoupled work-item case
// study.
//
// The paper's application (Section II-D) is a nested random number
// generator: raw uniform bits come from Mersenne-Twisters, are transformed
// to normal variates (Marsaglia-Bray or ICDF), and finally drive the
// Marsaglia-Tsang rejection sampler for gamma variates. The conversions
// declared here fix how a raw word becomes a uniform, so every path —
// the FPGA dataflow simulator, the SIMT lockstep simulator and plain host
// execution — produces the same bytes.
package rng

import "math"

// Source32 yields a stream of raw 32-bit uniform words. It is the
// lowest-level contract in the stack; both Mersenne-Twister variants and
// the splittable test doubles implement it.
type Source32 interface {
	// Uint32 consumes and returns the next word of the stream.
	Uint32() uint32
}

const (
	inv24 = 1.0 / (1 << 24) // 2^-24, float32-exact
	inv32 = 1.0 / (1 << 32) // 2^-32
)

// U32ToFloatOpen maps a raw 32-bit word to a single-precision uniform in
// (0,1]: with m = x>>8, the 24 high-order bits (the full mantissa width
// of float32), it returns (m+0.5)·2^-24 in float32 arithmetic. This is
// the `uint2float` of Listing 2. For m < 2^23 the sum is exact, so the
// lower half of the lattice sits at half steps and 0 is never produced.
// For m ≥ 2^23 the sum needs 25 bits and rounds to even, giving m or
// m+1: the upper half is not centred, the words with m = 2k+1 and
// m = 2k+2 share one value, and every word ≥ 0xFFFFFF00 gives exactly
// 1.0. Logarithms and reciprocals stay finite; a transform that needs
// u < 1 must check. Changing the conversion would move every golden
// digest (TestUniformLatticeEdges pins these edges).
func U32ToFloatOpen(x uint32) float32 {
	return (float32(x>>8) + 0.5) * inv24
}

// U32ToFloat64Open maps a raw 32-bit word to a double-precision uniform in
// (0,1) with the same half-step centring.
func U32ToFloat64Open(x uint32) float64 {
	return (float64(x) + 0.5) * inv32
}

// U32ToSigned maps a raw word to a single-precision uniform in (-1,1]
// for the Marsaglia-Bray polar candidates: (m+0.5)·2^-23 − 1 with
// m = x>>8, rounded as in U32ToFloatOpen. The words 0x80000000 to
// 0x800000FF give exactly 0, every word ≥ 0xFFFFFF00 gives exactly 1,
// and the upper half pairs words as U32ToFloatOpen does. The polar
// test's 0 < s < 1 bounds reject a candidate with a coordinate of
// exactly 1 or with both coordinates 0.
func U32ToSigned(x uint32) float32 {
	return (float32(x>>8)+0.5)*(2*inv24) - 1
}

// SplitMix64 is a tiny, fast, well-distributed 64-bit generator used only
// for deriving seeds (work-item stream separation, test fixtures). It is
// not part of the modelled hardware.
type SplitMix64 struct{ state uint64 }

// NewSplitMix64 returns a SplitMix64 seeded with the given value.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Next returns the next 64-bit word.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint32 returns the next 32-bit word, making SplitMix64 usable as a
// Source32. No binary calls it: it is test support for the word-pattern
// fixtures of several packages' tests.
func (s *SplitMix64) Uint32() uint32 { return uint32(s.Next() >> 32) }

// StreamSeeds derives n well-separated 64-bit seeds from a master seed.
// The experiment harness assigns one to each decoupled work-item, mirroring
// the paper's use of dynamically created Mersenne-Twisters per stream.
func StreamSeeds(master uint64, n int) []uint64 {
	sm := NewSplitMix64(master)
	out := make([]uint64, n)
	for i := range out {
		s := sm.Next()
		if s == 0 { // all-zero seeds are degenerate for LFSR-family generators
			s = 0x5DEECE66D
		}
		out[i] = s
	}
	return out
}

// Float64Source adapts a Source32 to produce float64 uniforms in (0,1),
// consuming one word per variate. Reference samplers in the gamma package
// use it where double precision is required.
type Float64Source struct{ Src Source32 }

// Next returns the next double-precision uniform in (0,1).
func (f Float64Source) Next() float64 { return U32ToFloat64Open(f.Src.Uint32()) }

// IsFinite32 reports whether v is neither NaN nor ±Inf. Hardware
// implementations saturate rather than propagate non-finite values; the
// validity checks in the pipelined kernels use this helper.
func IsFinite32(v float32) bool {
	return !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
}
