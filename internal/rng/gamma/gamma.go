// Package gamma implements the Marsaglia-Tsang rejection sampler for
// gamma-distributed random numbers — the nested rejection-based algorithm
// of the paper's case study (Fig. 4) — in two shapes:
//
//   - Sampler: a conventional host-style sampler (loop until accepted).
//   - Generator: the pipelined, gated formulation of Listing 2, in which
//     every cycle computes a full candidate (normal draw, rejection test,
//     correction) and validity is decided afterwards; the three
//     Mersenne-Twisters run freely and are consumed through enable flags
//     exactly as Listing 3 prescribes.
//
// The package also contains two algorithm-independent reference samplers
// (Jöhnk for α<1, Exp-sum+Jöhnk decomposition for α>1, and Ahrens-Dieter
// GS) that stand in for the paper's Matlab `gamrnd` benchmark when
// validating distribution shape (Fig. 6).
//
// Parameterization follows the paper's CreditRisk+ usage (Section II-D4):
// a sector with variance v has S ~ Gamma(α=1/v, β=v), so E[S]=1 and
// Var[S]=v.
package gamma

import (
	"fmt"
	"math"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/rng/xmath"
	"github.com/decwi/decwi/internal/telemetry"
)

// Params holds the precomputed Marsaglia-Tsang constants for one (α, β)
// pair. For α < 1 the sampler runs at α+1 and corrects each accepted draw
// by u^(1/α) (the paper's `Correct` step guarded by `alphaFlag`).
type Params struct {
	Alpha float64 // shape α
	Scale float64 // scale β (paper: b = v)

	// AlphaFlag is true when α ≤ 1 and the boost correction applies
	// (Listing 2's `alphaFlag`).
	AlphaFlag bool

	d, c     float64 // Marsaglia-Tsang d = α' − 1/3, c = 1/√(9d), α' = α or α+1
	invAlpha float64 // 1/α, exponent of the correction uniform
	// finishMargin is FinishBlock's rounding-test margin in float64
	// ulps of the output (see finishMarginULPs).
	finishMargin uint64
}

// NewParams precomputes the sampler constants. Alpha and scale must be
// positive.
func NewParams(alpha, scale float64) (Params, error) {
	if !(alpha > 0) || !(scale > 0) {
		return Params{}, fmt.Errorf("gamma: alpha and scale must be positive, got α=%g β=%g", alpha, scale)
	}
	p := Params{Alpha: alpha, Scale: scale, AlphaFlag: alpha <= 1}
	ap := alpha
	if p.AlphaFlag {
		ap = alpha + 1
	}
	p.d = ap - 1.0/3.0
	p.c = 1 / math.Sqrt(9*p.d)
	p.invAlpha = 1 / alpha
	p.finishMargin = finishMarginULPs(p.invAlpha)
	return p, nil
}

// lnUMax bounds |ln u| over the correction uniforms: U32ToFloatOpen's
// smallest value is 2^−25, and 25·ln 2 < 17.33.
const lnUMax = 17.33

// finishMarginULPs bounds, in float64 ulps of y, how far FinishBlock's
// approximate output y = dv·Exp(e·Log(u))·β can lie from Finish's
// dv·powCorrect(u, e)·β, for e = 1/α. With λ = |e·ln u| ≤ 17.33·e:
//
//   - the lane: Log's 2^−49·|ln u| and the rounding of e·Log(u) move
//     the exponent by λ·(2^−49 + 2^−53), Exp adds 2^−51 and the two
//     products 2^−52;
//   - the host: math.Log's 1 ulp and the rounding of e·ln u move the
//     exponent by 1.5·λ·2^−52, math.Exp adds at most 2 ulps (2^−51) and
//     the two products 2^−52.
//
// The relative distance is below λ·2^−48.6 + 2^−49, that is
// 21.2·λ + 16 ulps of y, since y/ulp(y) < 2^53. The margin takes
// 32·λ + 32 at λ's largest value, 17.33·e. That also covers u = 1,
// which the top lattice words round to and where Log is within 2^−51
// absolute, 4·e ulps of y. At e ≥ ~484,000 the margin saturates at
// 2^28, where every value falls back.
func finishMarginULPs(e float64) uint64 {
	m := 32*lnUMax*e + 32
	if !(m < 1<<28) {
		return 1 << 28
	}
	return uint64(m)
}

// FromVariance maps a CreditRisk+ sector variance v to Params with
// E[S]=1: α = 1/v, β = v (paper Section II-D4).
func FromVariance(v float64) (Params, error) {
	if !(v > 0) {
		return Params{}, fmt.Errorf("gamma: sector variance must be positive, got %g", v)
	}
	return NewParams(1/v, v)
}

// MustFromVariance is FromVariance for statically known good inputs.
func MustFromVariance(v float64) Params {
	p, err := FromVariance(v)
	if err != nil {
		panic(err)
	}
	return p
}

// Candidate evaluates one Marsaglia-Tsang attempt from a normal draw n0
// and a rejection uniform u1, without the α<1 correction. Everything is
// computed unconditionally — v is clamped before the logarithm the same
// way the hardware datapath saturates — and validity is decided at the
// end, matching the single fully pipelined block of Listing 2.
//
// The returned value is the *unscaled, uncorrected* d·v; callers apply
// correction and scale via Finish.
func (p Params) Candidate(n0 float32, u1 float32) (dv float64, accept bool) {
	x := float64(n0)
	cx := 1 + p.c*x
	v := cx * cx * cx
	vok := v > 0

	vc := v
	if vc <= 0 {
		vc = 1 // keep log() in domain; result is discarded when !vok
	}
	u := float64(u1)
	x2 := x * x
	squeeze := u < 1-0.0331*x2*x2
	logAccept := math.Log(u) < 0.5*x2+p.d-p.d*vc+p.d*math.Log(vc)

	return p.d * v, vok && (squeeze || logAccept)
}

// Finish applies the α≤1 boost correction (using the correction uniform
// u2) and the scale β to an accepted candidate. It mirrors Listing 2's
//
//	float gRN_ = Correct(gRN, u2, alpha);
//	float gamma = (alphaFlag) ? gRN_ : gRN;
//
// and is likewise computed unconditionally in the pipeline.
func (p Params) Finish(dv float64, u2 float32) float32 {
	g := dv
	if p.AlphaFlag {
		// The Pow is only observable when the boost correction applies;
		// skipping it otherwise leaves the result bitwise-unchanged (the
		// hardware computes it unconditionally, but a select discards it).
		g = dv * powCorrect(float64(u2), p.invAlpha)
	}
	return float32(g * p.Scale)
}

// powCorrect computes u^e for the boost correction, with u ∈ (0,1) (an
// open-interval uniform, never 0 or 1) and e = 1/α > 0. It is the direct
// exp(e·ln u) form rather than math.Pow: Pow's general path pays for
// extended-precision argument splitting (Frexp/Modf/Ldexp) to guarantee
// <1 ulp over the full float64 domain, which profiles at ~half the cost
// of the whole pipeline here. On this domain the direct form's float64
// relative error is about |e·ln u|·2^−52, since the rounding of e·ln u
// moves the exponent: at the smallest u, about 24 ulps at e = 1.39 and
// about 1,700 at e = 100, still far below the float32 rounding in
// Finish; see DESIGN.md for the error budget. The bytes follow the
// host's math package: the golden digests pin amd64 math.Exp's AVX+FMA
// sequence, and a non-FMA amd64 or an arm64 host writes different
// bytes. FinishBlock reaches these same bytes through a rounding test
// and falls back to Finish, and so to this function, value by value.
func powCorrect(u, e float64) float64 {
	return math.Exp(e * math.Log(u))
}

// FinishBlock is Finish over a compacted block of accepted candidates:
// dst[i] = Finish(dv[i], U32ToFloatOpen(u2[i])) for every i < len(dv),
// bit for bit. dst, u2 and pw must hold at least len(dv) entries; pw is
// scratch. CycleBlock finishes through it.
//
// With the boost correction it runs a certified lane in four passes,
// each one loop, so the dependency chains of neighbouring values
// overlap: convert the words to uniforms, take t = e·xmath.Log(u), take
// xmath.Exp(t), then form y = dv·Exp(t)·β and take float32(y) when
// xmath.Rounds32 certifies it within the margin that NewParams derived
// (finishMarginULPs). Every other value — one the test cannot decide,
// an exponential below xmath.ExpMin, an output outside the float32
// normal range — is recomputed by Finish itself, so the bytes are the
// math package's by construction. It returns how many values fell
// back.
func (p Params) FinishBlock(dst []float32, dv []float64, u2 []uint32, pw []float64) (fallbacks int) {
	n := len(dv)
	dst, u2, pw = dst[:n], u2[:n], pw[:n]
	if !p.AlphaFlag {
		// bce:begin FinishBlock scale pass
		for i, d := range dv {
			dst[i] = float32(d * p.Scale)
		}
		// bce:end
		return 0
	}
	e := p.invAlpha
	// bce:begin FinishBlock lane passes
	for i, w := range u2 {
		pw[i] = float64(rng.U32ToFloatOpen(w))
	}
	for i, u := range pw {
		pw[i] = e * xmath.Log(u)
	}
	for i, t := range pw {
		if t < xmath.ExpMin {
			pw[i] = 0 // underflow: y = 0 fails the rounding test
			continue
		}
		pw[i] = xmath.Exp(t)
	}
	scale, margin := p.Scale, p.finishMargin
	for i, d := range dv {
		y := d * pw[i] * scale
		dst[i] = float32(y)
		if !xmath.Rounds32(y, margin) {
			pw[i] = -1 // left to Finish below
			fallbacks++
		}
	}
	if fallbacks > 0 {
		for i, f := range pw {
			if f < 0 {
				dst[i] = p.Finish(dv[i], rng.U32ToFloatOpen(u2[i]))
			}
		}
	}
	// bce:end
	return fallbacks
}

// logChunk is how many squeeze failures CandidateBlock gathers before
// evaluating their logarithms as one block.
const logChunk = 64

// logTest runs the two-logarithm Marsaglia-Tsang test on gathered
// squeeze failures: slot at[j] holds normal n0[at[j]] with uniform lu[j]
// and cube lv[j] > 0. It sets acc for the slots that pass and returns
// how many did. The cube is recomputed from n0 with the identical float
// operations, so every decision matches Candidate's.
//
// The logarithms come from xmath.Log in one pass, and each decision
// l < r, l = ln u, r = a + d·ln v, a = x²/2 + d − d·v, is taken from them
// when |r − l| exceeds a slack that covers the math package's error as
// well as Log's. Log is within 2^−49·|ln x| + 2^−51 of ln x for u and v,
// math.Log within 2^−52·|ln x|, and d·ln v and a + d·ln v round once on
// each side. The two differences r − l therefore lie within
// 2^−48.5·(|l| + |d·ln v| + |r|) + 2^−51·(1 + d) of each other, which
// logTestSlack more than doubles, as d ≥ 2/3. Otherwise, or when v is
// not a normal float64 (outside Log's domain), both logarithms are
// recomputed with math.Log and compared exactly as Candidate does.
func (p Params) logTest(acc []bool, n0 []float32, at []int32, lu, lv []float64) (accepted int) {
	var la, lb [logChunk]float64
	lu, lv = lu[:len(at)], lv[:len(at)]
	// bce:begin logTest log pass
	for j, v := range lv {
		la[j&(logChunk-1)], lb[j&(logChunk-1)] = xmath.Log(lu[j]), xmath.Log(v)
		if !(v >= 0x1p-1022 && v <= math.MaxFloat64) {
			lb[j&(logChunk-1)] = math.NaN() // outside Log's domain: no slack test passes
		}
	}
	// bce:end
	for j, i := range at {
		x := float64(n0[i])
		cx := 1 + p.c*x
		v := cx * cx * cx
		x2 := x * x
		a := 0.5*x2 + p.d - p.d*v
		l, dl := la[j&(logChunk-1)], p.d*lb[j&(logChunk-1)]
		r := a + dl
		pass := l < r
		if !(math.Abs(r-l) > p.logTestSlack(l, dl, r)) {
			pass = math.Log(lu[j]) < 0.5*x2+p.d-p.d*v+p.d*math.Log(v)
		}
		acc[i] = pass
		if pass {
			accepted++
		}
	}
	return accepted
}

// logTestSlack is logTest's decision margin for l ≈ ln u, dl ≈ d·ln v
// and r = a + dl.
func (p Params) logTestSlack(l, dl, r float64) float64 {
	return 0x1p-47 * (math.Abs(l) + math.Abs(dl) + math.Abs(r) + p.d)
}

// CandidateBlock evaluates the Marsaglia-Tsang test over a whole block of
// normal candidates: slot i consumes n0[i] (meaningful only when nok[i])
// and, when nok[i], the next word of u1 — exactly the gated-stream
// pairing of CycleStep, where the k-th *valid* normal meets the k-th MT1
// word. len(u1) must therefore equal the number of true entries in nok.
// dv[i] and acc[i] receive the unscaled candidate and the acceptance;
// the return value is the accept count (= words of MT2 the correction
// stage will consume).
//
// Accepted entries are bitwise-identical to Candidate: the squeeze test
// is checked first and the logarithms evaluated only when it fails,
// which cannot change the decision (the scalar form ors the two tests).
//
// When every normal is valid (the ICDF transforms in their non-saturated
// regime — the common case), len(u1) == len(n0) and the evaluation runs
// through a dense two-pass kernel: a branch-free unrolled squeeze pass
// that only accumulates acceptance masks, then a sparse pass evaluating
// the logarithms for the squeeze failures. Lazy log evaluation cannot
// change any decision, so both shapes remain bitwise-identical.
func (p Params) CandidateBlock(dv []float64, acc []bool, n0 []float32, nok []bool, u1 []uint32) (accepted int) {
	if len(u1) == len(n0) {
		// len(u1) equals the number of valid normals by contract, so a
		// full-length u1 means every slot is valid: take the dense kernel.
		return p.candidateBlockDense(dv, acc, n0, u1)
	}
	var lu, lv [logChunk]float64
	var at [logChunk]int32
	n, j := 0, 0
	for i := range n0 {
		if !nok[i] {
			// The gated pipeline still computes a candidate here from the
			// held MT1 word, but validity is forced false and the value
			// discarded, so the block path skips the work entirely.
			dv[i] = 0
			acc[i] = false
			continue
		}
		x := float64(n0[i])
		cx := 1 + p.c*x
		v := cx * cx * cx
		u := float64(rng.U32ToFloatOpen(u1[j]))
		j++
		x2 := x * x
		dv[i] = p.d * v
		acc[i] = v > 0 && u < 1-0.0331*x2*x2
		if acc[i] {
			accepted++
		} else if v > 0 {
			// Squeeze failure: gather for the block logarithms.
			lu[n], lv[n], at[n] = u, v, int32(i)
			if n++; n == logChunk {
				accepted += p.logTest(acc, n0, at[:], lu[:], lv[:])
				n = 0
			}
		}
	}
	return accepted + p.logTest(acc, n0, at[:n], lu[:n], lv[:n])
}

// candidateBlockDense is the all-normals-valid CandidateBlock kernel:
// pass 1 evaluates the polynomial squeeze test branch-free over 4-wide
// unrolled lanes (acceptance lands in acc as a mask, no data-dependent
// control flow), pass 2 revisits only the squeeze failures with a valid
// cube and runs the two-logarithm test. Recomputing x/v in pass 2 repeats
// the identical float operations, so decisions match the scalar form
// exactly.
func (p Params) candidateBlockDense(dv []float64, acc []bool, n0 []float32, u1 []uint32) (accepted int) {
	c, d := p.c, p.d
	// The prove pass cannot discharge n0[i+3]-style indexing off a
	// shared pinned length here; the advancing-subslice form below
	// (every residual length in the loop condition, constant indices
	// into [:4:4] windows) compiles with zero bounds checks.
	// bce:begin candidateBlockDense squeeze pass
	xs, us, ds, as := n0, u1, dv, acc
	for len(xs) >= 4 && len(us) >= 4 && len(ds) >= 4 && len(as) >= 4 {
		x4 := xs[:4:4]
		u4 := us[:4:4]
		d4 := ds[:4:4]
		a4 := as[:4:4]
		x0 := float64(x4[0])
		x1 := float64(x4[1])
		x2 := float64(x4[2])
		x3 := float64(x4[3])
		cx0 := 1 + c*x0
		cx1 := 1 + c*x1
		cx2 := 1 + c*x2
		cx3 := 1 + c*x3
		v0 := cx0 * cx0 * cx0
		v1 := cx1 * cx1 * cx1
		v2 := cx2 * cx2 * cx2
		v3 := cx3 * cx3 * cx3
		u0 := float64(rng.U32ToFloatOpen(u4[0]))
		uu1 := float64(rng.U32ToFloatOpen(u4[1]))
		u2 := float64(rng.U32ToFloatOpen(u4[2]))
		u3 := float64(rng.U32ToFloatOpen(u4[3]))
		s0 := x0 * x0
		s1 := x1 * x1
		s2 := x2 * x2
		s3 := x3 * x3
		d4[0] = d * v0
		d4[1] = d * v1
		d4[2] = d * v2
		d4[3] = d * v3
		a4[0] = v0 > 0 && u0 < 1-0.0331*s0*s0
		a4[1] = v1 > 0 && uu1 < 1-0.0331*s1*s1
		a4[2] = v2 > 0 && u2 < 1-0.0331*s2*s2
		a4[3] = v3 > 0 && u3 < 1-0.0331*s3*s3
		xs, us, ds, as = xs[4:], us[4:], ds[4:], as[4:]
	}
	for len(xs) > 0 && len(us) > 0 && len(ds) > 0 && len(as) > 0 {
		x := float64(xs[0])
		cx := 1 + c*x
		v := cx * cx * cx
		u := float64(rng.U32ToFloatOpen(us[0]))
		x2 := x * x
		ds[0] = d * v
		as[0] = v > 0 && u < 1-0.0331*x2*x2
		xs, us, ds, as = xs[1:], us[1:], ds[1:], as[1:]
	}
	// bce:end
	// Pass 2: squeeze failures with a valid cube take the full
	// two-logarithm Marsaglia-Tsang test (8.1% of ICDF slots at v=1.39,
	// counted by TestSqueezeFailureShare), gathered into chunks whose
	// logarithms run as one block.
	var lu, lv [logChunk]float64
	var at [logChunk]int32
	n := 0
	for i, a := range acc {
		if a {
			accepted++
			continue
		}
		x := float64(n0[i])
		cx := 1 + c*x
		v := cx * cx * cx
		if !(v > 0) {
			continue
		}
		lu[n], lv[n], at[n] = float64(rng.U32ToFloatOpen(u1[i])), v, int32(i)
		if n++; n == logChunk {
			accepted += p.logTest(acc, n0, at[:], lu[:], lv[:])
			n = 0
		}
	}
	return accepted + p.logTest(acc, n0, at[:n], lu[:n], lv[:n])
}

// CycleResult is the full outcome of one pipelined iteration of the
// Listing 2 main loop, as observed by the validation and performance
// layers.
type CycleResult struct {
	// Gamma is the output value; meaningful only when Valid.
	Gamma float32
	// Valid is Listing 2's gRN_ok: the normal candidate was valid and
	// the Marsaglia-Tsang test accepted.
	Valid bool
	// NormalValid is the validity of the uniform-to-normal stage alone
	// (always true for the ICDF transforms except saturation).
	NormalValid bool
}

// Generator is the pipelined gamma generator of Listing 2: three gated
// Mersenne-Twister streams (the normal source may internally use two, per
// the dynamic-creation split for the polar method), one transform, one
// Marsaglia-Tsang stage. Each CycleStep call corresponds to exactly one
// clock cycle of the II=1 hardware pipeline.
type Generator struct {
	p         Params
	transform normal.Kind

	// mt0a/mt0b feed the uniform-to-normal transform and always advance
	// (enable tied true in Listing 2); mt0b is unused for the ICDF
	// transforms. mt1 feeds the rejection test, gated on the normal
	// validity; mt2 feeds the correction, gated on overall acceptance.
	mt0a, mt0b, mt1, mt2 *mt.Core

	cycles      uint64 // total CycleStep invocations
	accepted    uint64 // cycles with Valid result
	normalValid uint64 // cycles whose uniform-to-normal stage was valid

	// tripHist, when set via InstrumentTrips, receives the number of
	// pipeline iterations each accepted output took (1 = first-try
	// accept). sinceAccept carries the in-flight trip count across the
	// block/gated compute boundary.
	tripHist    *telemetry.Histogram
	sinceAccept int64
}

// NewGenerator builds a pipelined generator with the given transform,
// Mersenne-Twister parameter set (Table I: MT19937 or MT521) and gamma
// parameters. Seeds for the internal streams are derived from seed with
// SplitMix64 stream separation.
func NewGenerator(transform normal.Kind, mtp mt.Params, p Params, seed uint64) *Generator {
	seeds := rng.StreamSeeds(seed, 4)
	return &Generator{
		p:         p,
		transform: transform,
		mt0a:      mt.New(mtp, seeds[0]),
		mt0b:      mt.New(mtp, seeds[1]),
		mt1:       mt.New(mtp, seeds[2]),
		mt2:       mt.New(mtp, seeds[3]),
	}
}

// Reseed re-initializes the four gated twister streams from a fresh
// master seed (same SplitMix64 stream separation as NewGenerator) and
// zeroes the cycle counters. A reseeded generator is indistinguishable
// from NewGenerator(transform, mtp, p, seed): mt.Core.Seed rebuilds the
// full state including the Peek cache. This is what lets the engine pool
// generators across work-item chunks instead of re-allocating the state
// arrays per chunk.
func (g *Generator) Reseed(seed uint64) {
	seeds := rng.StreamSeeds(seed, 4)
	g.mt0a.Seed(seeds[0])
	g.mt0b.Seed(seeds[1])
	g.mt1.Seed(seeds[2])
	g.mt2.Seed(seeds[3])
	g.cycles, g.accepted, g.normalValid = 0, 0, 0
	g.sinceAccept = 0
}

// InstrumentTrips attaches a histogram that receives, for every accepted
// output, the number of pipeline iterations it took (1 = accepted on the
// first attempt) — the per-output cost distribution of the nested
// rejection loops. Pass nil to detach; pooled generators must be
// re-attached (or detached) on every acquisition so a recorder from a
// previous run never leaks into the next. The trip accounting itself
// never touches the twister streams, so it cannot perturb the generated
// bytes.
func (g *Generator) InstrumentTrips(h *telemetry.Histogram) {
	g.tripHist = h
	g.sinceAccept = 0
}

// SetParams swaps the gamma parameters in place — the SECLOOP of
// Listing 2 does exactly this between sectors (each financial sector has
// its own variance) while the Mersenne-Twister states run on untouched.
func (g *Generator) SetParams(p Params) { g.p = p }

// normalStep produces this cycle's normal candidate, consuming the
// MT0 streams unconditionally (they are enabled on every cycle).
func (g *Generator) normalStep() (float32, bool) {
	switch g.transform {
	case normal.MarsagliaBray:
		return normal.PolarStep(g.mt0a.Next(true), g.mt0b.Next(true))
	case normal.ICDFFPGA:
		return normal.ICDFFPGAStep(g.mt0a.Next(true))
	case normal.ICDFCUDA:
		return normal.ICDFCUDAStep(g.mt0a.Next(true))
	case normal.Ziggurat:
		// Three words per cycle: the candidate word from one stream, the
		// two acceptance uniforms from the second (consecutive words of
		// an MT stream are independent).
		return normal.ZigguratStep(g.mt0a.Next(true), g.mt0b.Next(true), g.mt0b.Next(true))
	default:
		panic("gamma: unknown transform")
	}
}

// CycleStep executes one iteration of the Listing 2 MAINLOOP body:
//
//	bool n0_valid = M_Bray(&n0, MT0(true,...));        // or ICDF
//	float u1      = uint2float(MT1(n0_valid,...));
//	bool  gRN_ok  = n0_valid && GammaRN(&gRN, n0, u1);
//	float u2      = uint2float(MT2(gRN_ok,...));
//	float gamma   = Correct/select;
//
// The gating discipline is the crux of the paper's Section II-E: a stalled
// logical stream must not discard words, or the uniform distributions
// would be distorted.
func (g *Generator) CycleStep() CycleResult {
	g.cycles++

	n0, n0ok := g.normalStep()
	if n0ok {
		g.normalValid++
	}

	u1 := rng.U32ToFloatOpen(g.mt1.Next(n0ok))
	dv, accept := g.p.Candidate(n0, u1)
	valid := n0ok && accept

	u2 := rng.U32ToFloatOpen(g.mt2.Next(valid))
	out := g.p.Finish(dv, u2)

	if valid {
		g.accepted++
	}
	if g.tripHist != nil {
		g.sinceAccept++
		if valid {
			g.tripHist.Record(g.sinceAccept)
			g.sinceAccept = 0
		}
	}
	return CycleResult{Gamma: out, Valid: valid, NormalValid: n0ok}
}

// Next loops CycleStep until a valid output emerges — host-style usage.
func (g *Generator) Next() float32 {
	for {
		if r := g.CycleStep(); r.Valid {
			return r.Gamma
		}
	}
}

// Cycles returns the total number of pipeline iterations executed.
func (g *Generator) Cycles() uint64 { return g.cycles }

// Accepted returns the number of iterations that produced a valid output.
func (g *Generator) Accepted() uint64 { return g.accepted }

// NormalValid returns the number of iterations whose uniform-to-normal
// stage produced a valid candidate. Cycles − NormalValid is the cost of
// transform-level rejection (polar retries), and doubles as the hold
// count of the gated MT1 stream (its enable is the normal validity);
// Cycles − Accepted is likewise MT2's hold count. The telemetry layer
// uses these to attribute stalls to the Mersenne-Twister feed streams.
func (g *Generator) NormalValid() uint64 { return g.normalValid }

// RejectionRate returns the observed combined rejection rate r such that
// the pipeline needs (1+r)·n iterations per n outputs — the r of the
// paper's Eq. (1). It reflects both the transform's rejection (polar) and
// the Marsaglia-Tsang rejection.
func (g *Generator) RejectionRate() float64 {
	if g.accepted == 0 {
		return 0
	}
	return float64(g.cycles-g.accepted) / float64(g.accepted)
}

// MeasureRejectionRate runs a fresh generator for the given number of
// accepted outputs and returns the combined rate. Used to regenerate the
// Section IV-E rejection-rate figures (30.3 % for Marsaglia-Bray, 7.4 %
// for ICDF at v=1.39, and their ranges over v ∈ [0.1, 100]).
func MeasureRejectionRate(transform normal.Kind, mtp mt.Params, variance float64, outputs int, seed uint64) float64 {
	p := MustFromVariance(variance)
	g := NewGenerator(transform, mtp, p, seed)
	for i := 0; i < outputs; i++ {
		g.Next()
	}
	return g.RejectionRate()
}
