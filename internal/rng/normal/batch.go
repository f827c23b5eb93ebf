package normal

import (
	"math"
	"math/bits"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/xmath"
)

// This file holds the batch ("fill") kernels of the block compute path:
// every transform consumes whole slices of raw uniform words and writes
// whole slices of candidates, instead of being called once per pipeline
// cycle. Valid outputs are bitwise-identical to the scalar step
// functions; slots whose candidate is rejected are zeroed, because the
// block consumer discards them without ever reading the value (the
// scalar steps compute a clamped dummy value there only to mirror the
// hardware's unconditional datapath). The fill kernels never allocate.

// PolarFill runs one Marsaglia-Bray polar attempt per word pair,
// writing candidates to dst and validity to ok, and returns the number
// of valid candidates. It works through fixed stack chunks in passes:
// the first forms s = v1² + v2² and the validity of every slot and
// gathers the valid ones without a data-dependent branch; radii then
// turns their s into PolarStep's radii, and the last pass scatters the
// candidates v1·radius into a zeroed chunk. Unlike the scalar PolarStep
// — which evaluates the sqrt/log datapath unconditionally, as the
// pipelined hardware does — the transcendental math is skipped for the
// ~21.5 % of attempts the validity predicate rejects.
func PolarFill(dst []float32, ok []bool, w1, w2 []uint32) (valid int) {
	cnt := len(dst)
	if cnt > len(ok) || cnt > len(w1) || cnt > len(w2) {
		panic("normal: PolarFill slice lengths")
	}
	const chunk = 64
	var ls, ss [chunk]float64
	var vs, fs, zs [chunk]float32
	var at [chunk]uint8
	for len(dst) > 0 {
		m := min(len(dst), chunk)
		o, a, b := ok[:m:m], w1[:m:m], w2[:m:m]
		n := 0
		// The masks on the fixed-array indices are no-ops (every index is
		// below chunk) that let the prove pass drop the bounds checks.
		// bce:begin PolarFill gather pass
		for i := range o {
			v1 := rng.U32ToSigned(a[i])
			v2 := rng.U32ToSigned(b[i])
			s := v1*v1 + v2*v2
			in := s > 0 && s < 1
			o[i] = in
			j := n & (chunk - 1)
			ss[j], vs[j], at[j] = float64(s), v1, uint8(i)
			if in {
				n++
			}
		}
		// bce:end
		radii(fs[:n], ls[:n], ss[:n])
		zs = [chunk]float32{}
		// bce:begin PolarFill candidate pass
		for j, f := range fs[:n] {
			j &= chunk - 1
			zs[at[j]&(chunk-1)] = vs[j] * f
		}
		// bce:end
		copy(dst, zs[:m])
		valid += n
		dst, ok, w1, w2 = dst[m:], ok[m:], w1[m:], w2[m:]
	}
	return valid
}

// radiusMargin is radii's rounding-test margin in float64 ulps of the
// radius F = √(−2·ln s/s). xmath.Log is within 2^−49 of ln s relative,
// math.Log within 2^−52; −2·l is exact, the division and the square
// root round once each, and the root halves the error it is given. So
// radii's F is within 2^−49.8 of the true radius and PolarStep's within
// 2^−52.2, 2^−49.5 apart: 11.3 ulps of F, since F/ulp(F) < 2^53.
const radiusMargin = 32

// radii sets f[j] = radius(s[j]) for every s[j] in (0, 1) that a float32
// can hold, bit for bit, using l as scratch for the logarithms, and
// returns how many values the rounding test left to radius. It takes
// the logarithms through xmath.Log in one pass, then forms the radii
// and takes float32 of those xmath.Rounds32 certifies within
// radiusMargin. Every such radius is a normal float32: for s between
// 2^−149 and 1 − 2^−24, F lies between 2^−12 and 2^79.
func radii(f []float32, l, s []float64) (fallbacks int) {
	f, l = f[:len(s)], l[:len(s)]
	// bce:begin radii passes
	for j, x := range s {
		l[j] = xmath.Log(x)
	}
	for j, x := range s {
		if r := math.Sqrt(-2 * l[j] / x); xmath.Rounds32(r, radiusMargin) {
			f[j] = float32(r)
			continue
		}
		f[j] = radius(x)
		fallbacks++
	}
	// bce:end
	return fallbacks
}

// ICDFFPGAFill transforms one word per candidate through the bit-level
// segmented inverse CDF. Saturated inputs (beyond the deepest octave,
// a ~2^-29 event) are marked invalid exactly as in the scalar step.
//
// The step body is inlined here with the table-initialization Once
// hoisted out of the loop, the two saturation cases folded into a single
// unsigned octave-range compare, and the sign applied by flipping the
// float32 sign bit (bitwise-identical to negation for every value). The
// intra-segment shift is always a left shift on this geometry
// (rbits = p−3 ≤ 27 < icdfFracBits), so the scalar step's direction
// branch is elided. Bounds checks are eliminated via len-pinned slices
// and the masked/range-checked table indices (scripts/bce_check.sh).
func ICDFFPGAFill(dst []float32, ok []bool, words []uint32) (valid int) {
	icdfTableOnce.Do(buildICDFTable)
	cnt := len(dst)
	if cnt > len(ok) || cnt > len(words) {
		panic("normal: ICDFFPGAFill slice lengths")
	}
	// bce:begin ICDFFPGAFill lanes
	ok = ok[:cnt:cnt]
	words = words[:cnt:cnt]
	tbl := &icdfTable
	sat := icdfSaturate
	valid = cnt
	for i := range dst {
		w := words[i]
		h := w >> 1
		p := 31 - bits.LeadingZeros32(h) // h==0 gives p=-1, folded below
		k := 30 - p                      // octave index
		var q int64
		if uint(k) < icdfOctaves {
			j := (h >> uint(p-icdfSegBits)) & (icdfSegsPerOct - 1)
			rbits := uint(p - icdfSegBits)
			rem := int64(h & ((1 << rbits) - 1))
			t := rem << (icdfFracBits - rbits) // Q0.28 intra-segment offset
			c := &tbl[k][j]
			r := c.c1 + ((c.c2 * t) >> icdfFracBits)
			q = c.c0 + ((r * t) >> icdfFracBits)
			ok[i] = true
		} else {
			// Saturation: h == 0 (k computes to 31) or beyond the deepest
			// octave — the same ~2^-29 events the scalar step rejects.
			q = sat
			ok[i] = false
			valid--
		}
		zf := float32(q) * float32(1.0/(1<<icdfFracBits))
		dst[i] = math.Float32frombits(math.Float32bits(zf) ^ (w&1)<<31)
	}
	// bce:end
	return valid
}

// ICDFCUDAFill transforms one word per candidate through the
// erfinv-based inverse CDF.
func ICDFCUDAFill(dst []float32, ok []bool, words []uint32) (valid int) {
	for i := range dst {
		z, zok := ICDFCUDAStep(words[i])
		dst[i], ok[i] = z, zok
		if zok {
			valid++
		}
	}
	return valid
}

// ZigguratFill runs one pipelined ziggurat attempt per candidate. w1
// supplies the candidate/layer words (one per attempt); w23 supplies the
// wedge/tail acceptance uniforms (two consecutive words per attempt, the
// same consumption order as the scalar per-cycle formulation). It
// returns the accept count; rejected slots retry on the caller's next
// block with entirely fresh words, which is the standard redraw loop.
func ZigguratFill(dst []float32, ok []bool, w1, w23 []uint32) (valid int) {
	zigOnce.Do(buildZiggurat)
	cnt := len(dst)
	if cnt > len(ok) || cnt > len(w1) || 2*cnt > len(w23) {
		panic("normal: ZigguratFill slice lengths")
	}
	for i := range dst {
		z, zok := ZigguratStep(w1[i], w23[2*i], w23[2*i+1])
		dst[i], ok[i] = z, zok
		if zok {
			valid++
		}
	}
	return valid
}

// FillNormal dispatches to the batch kernel of the given transform kind,
// consuming w1 (one word per candidate) and, for the two-stream kinds,
// w2 (one word per candidate for Marsaglia-Bray, two per
// candidate for the ziggurat; ignored — may be nil — for the ICDF
// kinds). dst, ok and w1 must share their length. Returns the number of
// valid candidates.
func FillNormal(k Kind, dst []float32, ok []bool, w1, w2 []uint32) (valid int) {
	switch k {
	case MarsagliaBray:
		return PolarFill(dst, ok, w1, w2)
	case ICDFFPGA:
		return ICDFFPGAFill(dst, ok, w1)
	case ICDFCUDA:
		return ICDFCUDAFill(dst, ok, w1)
	case Ziggurat:
		return ZigguratFill(dst, ok, w1, w2)
	default:
		panic("normal: unknown transform kind")
	}
}
