// Package xmath holds table-driven logarithm and exponential kernels
// with proved error bounds, for the leaves of the gamma pipeline whose
// results are rounded to float32 or decide a comparison.
//
// Neither kernel reproduces the math package's bits. A caller keeps the
// host's bytes with Ziv's rounding test, as in CRlibm: it bounds how far
// its approximate result can lie from the math package's, asks whether
// any value in that interval could round or compare differently (for a
// float32 rounding, Rounds32), and recomputes with the math package only
// when it could. Callers call these kernels from separate passes over a
// block, one kernel per loop, so the dependency chains of neighbouring
// values overlap.
//
// The tables are filled at start-up from math.Log and math.Exp2, whose
// error is below one unit in the last place (ulp). Each bound below
// already covers that error, so it holds on every host.
package xmath

import "math"

const (
	logBits = 7
	logN    = 1 << logBits
	// logOff is 0.6875: Log reduces x to z = x/2^k ∈ [logOff, 2·logOff).
	logOff = 0x3FE6000000000000
	// logOne is the table interval [1 − 2^−8, 1), the one just below 1.
	logOne = logN*5/8 - 1

	expBits = 6
	expN    = 1 << expBits

	// ln2Hi + ln2Lo = ln 2 within 2^−86; ln2Hi has 32 significant
	// bits, so n·ln2Hi/64 is exact for |n| < 2^21.
	ln2Hi = 6.93147180369123816490e-01
	ln2Lo = 1.90821492927058770002e-10

	invLn2N = expN / math.Ln2
	// shift rounds a float64 of magnitude below 2^51 to an integer
	// when added to it, and leaves that integer in the low bits.
	shift = 0x1.8p52
)

// logTab[i] = {invc, logc} covers one interval of the reduced argument
// z: 80 intervals of width 2^−8 on [0.6875, 1) and 48 of width 2^−7 on
// [1, 1.375). invc is 1/c for the interval's centre c, rounded to 28
// significant bits, and logc = −ln(invc) to within 1 ulp. The interval
// just below 1 keeps invc = 1 and logc = 0, so Log is a bare polynomial
// there and its error stays relative as x approaches 1 from below.
var logTab [logN][2]float64

// expTab[j] holds the bits of 2^(j/64), to within 1 ulp, minus j<<46:
// adding the exponential's whole index n = 64k + j shifted left by 46
// then restores the j bits and adds k to the exponent field.
var expTab [expN]uint64

func init() {
	for i := range logTab {
		if i == logOne {
			logTab[i] = [2]float64{1, 0}
			continue
		}
		lo, w := 0.6875+float64(i)*0x1p-8, 0x1p-8
		if i > logOne {
			lo, w = 1+float64(i-logOne-1)*0x1p-7, 0x1p-7
		}
		b := math.Float64bits(1 / (lo + w/2))
		invc := math.Float64frombits((b + 1<<24) &^ (1<<25 - 1))
		logTab[i] = [2]float64{invc, -math.Log(invc)}
	}
	for j := range expTab {
		expTab[j] = math.Float64bits(math.Exp2(float64(j)/expN)) - uint64(j)<<(52-expBits)
	}
}

// Log returns ln x for a positive normal float64 x within
//
//	|Log(x) − ln x| ≤ 2^−49·|ln x| + 2^−51,
//
// and within 2^−49·|ln x| alone when x < 1 has at most 24 significant
// bits (every float32 in (0, 1)). Zero, negative, subnormal, infinite
// and NaN inputs return meaningless values; callers keep them out.
//
// Derivation. Write x = 2^k·z with z ∈ [0.6875, 1.375) and let
// (invc, logc) be z's table entry, so ln x = k·ln 2 + logc + ln(1 + r)
// for r = z·invc − 1, |r| < 2^−8. Log returns
//
//	(k·Ln2 + logc) + (r + r²·q(r)),
//
// with r + r²·q(r) the degree-6 Taylor polynomial of ln(1 + r). For a
// 24-bit x the reduction is exact: z·invc has at most 24 + 28 = 52
// significant bits and lies within 2^−8 of 1, where subtracting 1 is
// exact; for a 53-bit x it rounds once, moving ln(1 + r) by at most
// 2^−52.98. The error sources are
//
//   - the truncated series, |r|⁷/7·(1 + 2^−7) ≤ 2^−50.8·|r|;
//   - logc, within 2^−52·|logc|; k·Ln2, within 1.76·2^−53·|k·ln 2|
//     for the constant and the product;
//   - one rounding, 2^−53 of the magnitude, in each of the three sums,
//     and roundings below 2^−59·|r| inside r²·q(r).
//
// On x < 1 those magnitudes are bounded by |ln x|: in the table
// interval just below 1, k = 0 and logc = 0 leave |r| ≤ |ln x| and every
// term relative; in the other intervals below 1, |ln x| ≥ 2^−8 bounds
// |r| < 2^−8.46 by 0.73·|ln x| and |logc| by 2.01·|ln x|; below 0.6875,
// |ln x| ≥ 0.374 bounds |k·ln 2| by 2.0·|ln x| and |logc| by
// 1.004·|ln x|. The largest sum, 2^−49.5, is in the second case. On
// x ≥ 1 with ln x < 0.38 the same terms add at most 2^−52.3 absolute,
// and with the 53-bit reduction that stays below 2^−51.
//
// Log and Exp are kept within the compiler's inlining budget, so the
// pass loops that call them compile without a call per value.
func Log(x float64) float64 {
	tmp := math.Float64bits(x) - logOff
	t := logTab[tmp>>(52-logBits)%logN]
	r := math.Float64frombits(tmp&(1<<52-1)+logOff)*t[0] - 1
	return (float64(int64(tmp)>>52)*math.Ln2 + t[1]) + (r + r*r*(-1.0/2+r*(1.0/3+r*(-1.0/4+r*(1.0/5+r*(-1.0/6))))))
}

// ExpMin is the bottom of Exp's domain.
const ExpMin = -708

// Exp returns e^x for x ∈ [ExpMin, 708] within
//
//	|Exp(x) − e^x| ≤ 2^−51·e^x,
//
// and a meaningless value outside that range; callers keep such
// arguments out.
//
// Derivation. Exp rounds x·64/ln 2 to the integer n = 64k + j,
// |n| < 2^16, and reduces r = x − n·ln2/64 with ln2/64 split as
// (ln2Hi + ln2Lo)/64: n·ln2Hi/64 is exact, and x − n·ln2Hi/64 is
// exact by Sterbenz's lemma, so r carries one rounding, 2^−53·|r|,
// plus |n|·2^−92 from the split; |r| ≤ ln2/128 + 2^−40 < 2^−7.52. It
// returns s + s·p with s = 2^k·2^(j/64) from expTab, within 2^−52, and
// p the degree-5 Taylor polynomial of e^r − 1, whose truncation is
// |r|⁶/720·(1 + 2^−7) < 2^−54.7. Rounding p costs 2^−53·|p| < 2^−60.5,
// s·p 2^−60.5 and the final sum 2^−53, relative to e^x. The total is
// 2^−52 + 2^−53 + 2^−54.5 < 2^−51.
func Exp(x float64) float64 {
	kd := x*invLn2N + shift
	ki := math.Float64bits(kd)
	kd -= shift
	r := x - kd*(ln2Hi/expN) - kd*(ln2Lo/expN)
	s := math.Float64frombits(expTab[ki%expN] + ki<<(52-expBits))
	return s + s*(r+r*r*(1.0/2+r*(1.0/6+r*(1.0/24+r*(1.0/120)))))
}

// Rounds32 reports whether every real within ulps float64 units in the
// last place of y rounds to the same float32 as y, and that float32 is
// normal and finite or the overflow to +Inf. It is Ziv's rounding
// test: a caller that has bounded the distance between its approximate
// y and the exact value can take float32(y) when Rounds32 holds.
//
// y must lie in [2^−126, 2^128), where float32 is normal, so zero,
// negative, subnormal-bound, infinite and NaN inputs report false. The
// 29 mantissa bits that float32 drops must then sit more than ulps away
// from 2^28, the rounding midpoint between two adjacent float32s. A value near a float32 itself rounds
// to it from either side, also across a binade boundary, so only the
// midpoint matters. At the top binade the midpoint above MaxFloat32 is
// the overflow threshold, which the same test covers.
func Rounds32(y float64, ulps uint64) bool {
	b := math.Float64bits(y)
	mid := int64(b&(1<<29-1)) - 1<<28
	return b>>52-(1023-126) < 254 && uint64(max(mid, -mid)) > ulps
}
