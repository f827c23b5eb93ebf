// Package xmath holds a pure-Go port of the amd64 assembly behind
// math.Log (log_amd64.s), operation for operation, so the block kernels
// of the gamma pipeline can evaluate logarithms four independent lanes
// per step, without one call into assembly per value, and still get the
// bits math.Log returns on this host.
//
// At start-up the package evaluates math.Log on probe inputs and keeps
// the port only if it matches; when it does not, or GOARCH is not
// amd64, every function here calls math.Log. Inputs outside the ported
// range (non-normal or non-positive) also go to math.Log, so every
// result is bit-equal to the math package's by construction or by the
// probe.
//
// Products that feed an addition are written float64(a*b) + c: an
// explicit conversion rounds, so no compiler may fuse them into a
// multiply-add the assembly does not perform.
package xmath

import (
	"math"
	"runtime"
)

// usePort is set once at start-up and never written again.
var usePort = probe(runtime.GOARCH, math.Log)

// probeLog spans the mantissa range and the f1 ≤ √2/2 boundary of the
// log reduction.
var probeLog = [...]float64{0.7071067811865476, 0.7071067811865475, 1.5, 2.9802322387695312e-8, 0.999999940395355, 12345.678}

// probe reports whether logPort reproduces log on the probe inputs.
func probe(arch string, log func(float64) float64) bool {
	if arch != "amd64" {
		return false
	}
	for _, x := range probeLog {
		if math.Float64bits(log(x)) != math.Float64bits(logPort(x)) {
			return false
		}
	}
	return true
}

// logValue returns math.Log(x), bit for bit.
func logValue(x float64) float64 {
	if !usePort || !logInRange(x) {
		return math.Log(x)
	}
	return logPort(x)
}

// LogBlock replaces every x[i] with math.Log(x[i]), bit for bit, four
// independent lanes per step so the out-of-order core overlaps their
// dependency chains.
func LogBlock(x []float64) {
	// bce:begin xmath LogBlock lanes
	for len(x) >= 4 {
		x4 := x[:4:4]
		a, b, c, d := x4[0], x4[1], x4[2], x4[3]
		if usePort && logInRange(a) && logInRange(b) && logInRange(c) && logInRange(d) {
			x4[0], x4[1], x4[2], x4[3] = logPort(a), logPort(b), logPort(c), logPort(d)
		} else {
			x4[0], x4[1], x4[2], x4[3] = logValue(a), logValue(b), logValue(c), logValue(d)
		}
		x = x[4:]
	}
	for i, v := range x {
		x[i] = logValue(v)
	}
	// bce:end
}

// logInRange reports whether x is a positive normal float64, the domain
// on which logPort follows log_amd64.s's main path.
func logInRange(x float64) bool {
	b := math.Float64bits(x)
	return b-1<<52 < 0x7FE<<52
}

// log_amd64.s constants.
const (
	hSqrt2Bits = 0x3FE6A09E667F3BCD // 7.07106781186547524401e-01
	ln2Hi      = 6.93147180369123816490e-01
	ln2Lo      = 1.90821492927058770002e-10
	l1         = 6.666666666666735130e-01
	l2         = 3.999999999940941908e-01
	l3         = 2.857142874366239149e-01
	l4         = 2.222219843214978396e-01
	l5         = 1.818357216161805012e-01
	l6         = 1.531383769920937332e-01
	l7         = 1.479819860511658591e-01
)

// logPort is log_amd64.s's main path for a positive normal x.
func logPort(x float64) float64 {
	// f1, k := frexp(x), with f1 in [0.5, 1). CMPSD $5 (not-less-than)
	// then takes f1 ≤ √2/2 to k−1, 2·f1. Both steps are exact, so they
	// run on the bits, where the select compiles without a branch.
	b := math.Float64bits(x)
	mant, hi := b&(1<<52-1), uint64(0x3FE0000000000000)
	ki := int64(b>>52&0x7FF) - 0x3FE
	if mant|hi <= hSqrt2Bits {
		ki--
		hi = 0x3FF0000000000000
	}
	f1 := math.Float64frombits(mant | hi)
	k := float64(ki)
	f := f1 - 1
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (float64(s4*(float64(s4*(float64(s4*l7)+l5))+l3)) + l1))
	t2 := float64(s4 * (float64(s4*(float64(s4*l6)+l4)) + l2))
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - (hfsq - (float64(s*(hfsq+(t1+t2))) + float64(k*ln2Lo)) - f)
}
