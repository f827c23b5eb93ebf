package gamma

import (
	"fmt"
	"math"
	"testing"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/rng/xmath"
)

// finishOracle is FinishBlock's contract, value by value.
func finishOracle(p Params, dv float64, w uint32) float32 {
	return p.Finish(dv, rng.U32ToFloatOpen(w))
}

// TestFinishLaneMatchesFinish walks the whole U32ToFloatOpen lattice
// (every 61st point under -race) with a dv that varies from word to
// word, in blocks of lengths 0–9, and requires FinishBlock to equal the
// scalar Finish bit for bit. It reports the fallback rate, which must
// stay at or below 2^−10 for e ≤ 3.
func TestFinishLaneMatchesFinish(t *testing.T) {
	const lattice = 1 << 24
	step := uint32(1)
	if raceEnabled {
		step = 61
	}
	for _, e := range []float64{1 / 0.72, 1.0001, 2, 3, 10, 100} {
		t.Run(fmt.Sprint(e), func(t *testing.T) {
			t.Parallel()
			p := MustFromVariance(e)
			u := make([]uint32, 4096)
			dv := make([]float64, len(u))
			pw := make([]float64, len(u))
			dst := make([]float32, len(u))
			fallbacks, total := 0, 0
			for next := uint32(0); next < lattice; {
				u = u[:cap(u)]
				for i := range u {
					u[i] = next << 8
					// dv spans [0.05, 4.05) in a scrambled order.
					dv[i] = 0.05 + float64(next*2654435761>>8)*0x1p-22
					if next += step; next >= lattice {
						u = u[:i+1]
						break
					}
				}
				for lo, n := 0, 0; lo < len(u); lo, n = lo+n, (n+1)%10 {
					hi := min(lo+n, len(u))
					fallbacks += p.FinishBlock(dst[lo:hi], dv[lo:hi], u[lo:hi], pw[lo:hi])
				}
				for i, w := range u {
					if want := finishOracle(p, dv[i], w); math.Float32bits(dst[i]) != math.Float32bits(want) {
						t.Fatalf("word %#x dv %v: lane %v, Finish %v", w, dv[i], dst[i], want)
					}
				}
				total += len(u)
			}
			rate := float64(fallbacks) / float64(total)
			t.Logf("e=%g: %d of %d values fell back (2^%.1f); margin %d ulps", e, fallbacks, total, math.Log2(rate), p.finishMargin)
			if e <= 3 && rate > 0x1p-10 {
				t.Fatalf("fallback rate %g exceeds 2^-10", rate)
			}
		})
	}
}

// laneCase is one scripted FinishBlock input.
type laneCase struct {
	name     string
	variance float64
	dv       float64
	word     uint32
}

// midpointDV returns the dv for which Finish's product dv·u^e·β lands
// on the float32 rounding midpoint above f, nudged by ulps float64 ulps.
func midpointDV(p Params, w uint32, f float32, ulps int64) float64 {
	m := (float64(f) + float64(math.Nextafter32(f, float32(math.Inf(1))))) / 2
	pw := powCorrect(float64(rng.U32ToFloatOpen(w)), p.invAlpha)
	return math.Float64frombits(uint64(int64(math.Float64bits(m/(pw*p.Scale))) + ulps))
}

// laneMarginCases scripts inputs that the rounding test must send to
// Finish: outputs just below, at and just above a float32 midpoint, a
// float32-subnormal output, an overflowing one and an exponential below
// xmath.ExpMin.
func laneMarginCases() []laneCase {
	var cs []laneCase
	for _, v := range []float64{1 / 0.72, 3, 100} {
		p := MustFromVariance(v)
		for _, w := range []uint32{0x12345600, 0x80000000, 0xFFFFF000, 0x00000100} {
			for _, f := range []float32{1, 0.7371, 2.5e-3} {
				for _, ulps := range []int64{-3, -1, 0, 1, 3} {
					cs = append(cs, laneCase{fmt.Sprintf("v=%g/w=%#x/mid(%g)%+d", v, w, f, ulps), v, midpointDV(p, w, f, ulps), w})
				}
			}
			cs = append(cs,
				laneCase{fmt.Sprintf("v=%g/w=%#x/subnormal", v, w), v, midpointDV(p, w, 1e-40, 0) * 1.37, w},
				laneCase{fmt.Sprintf("v=%g/w=%#x/overflow", v, w), v, midpointDV(p, w, math.MaxFloat32, 0) * 1.5, w},
			)
		}
	}
	// e·ln u = −100·25·ln 2 < ExpMin: the exponential underflows. At
	// e·ln u ≈ −2839 = −4096·ln 2, Exp's exponent would wrap round to a
	// normal float64 if the underflow were not caught.
	cs = append(cs,
		laneCase{"v=100/w=0/underflow", 100, 1.5, 0},
		laneCase{"v=200/w=0xb00/underflow", 200, 1.5, 0xb00},
	)
	return cs
}

// TestFinishLaneMargins drives FinishBlock onto the inputs it must not
// decide itself and requires the fallback to fire on each and the bytes
// to equal Finish's; the same values nudged to a float32 exactly must
// not fall back.
func TestFinishLaneMargins(t *testing.T) {
	var dst [1]float32
	var pw [1]float64
	for _, c := range laneMarginCases() {
		p := MustFromVariance(c.variance)
		got := p.FinishBlock(dst[:], []float64{c.dv}, []uint32{c.word}, pw[:])
		want := finishOracle(p, c.dv, c.word)
		if math.Float32bits(dst[0]) != math.Float32bits(want) {
			t.Errorf("%s: lane %v, Finish %v", c.name, dst[0], want)
		}
		if got != 1 {
			t.Errorf("%s: %d fallbacks, want 1 (y = %v)", c.name, got, want)
		}
	}
	p := MustFromVariance(1 / 0.72)
	const w = 0x12345600
	pw1 := powCorrect(float64(rng.U32ToFloatOpen(w)), p.invAlpha)
	for _, f := range []float32{1, 0.7371, 2.5e-3} {
		dv := float64(f) / (pw1 * p.Scale)
		if n := p.FinishBlock(dst[:], []float64{dv}, []uint32{w}, pw[:]); n != 0 {
			t.Errorf("output at float32 %v fell back", f)
		}
		if want := finishOracle(p, dv, w); dst[0] != want {
			t.Errorf("output at float32 %v: lane %v, Finish %v", f, dst[0], want)
		}
	}
}

// FuzzFinishLane requires FinishBlock to equal Finish bit for bit for
// any variance, dv and word, in a block of three values around them.
// The committed corpus sits on float32 midpoints, subnormal and
// overflowing outputs, e = 100 and large dv.
func FuzzFinishLane(f *testing.F) {
	for _, c := range laneMarginCases() {
		f.Add(c.variance, c.dv, c.word)
	}
	f.Fuzz(func(t *testing.T, variance, dv float64, word uint32) {
		p, err := FromVariance(variance)
		if err != nil {
			return
		}
		dvs := []float64{dv, dv * 1.5, dv / 3}
		words := []uint32{word, ^word, word*2654435761 + 1}
		var dst [3]float32
		var pw [3]float64
		p.FinishBlock(dst[:], dvs, words, pw[:])
		for i := range dvs {
			if want := finishOracle(p, dvs[i], words[i]); math.Float32bits(dst[i]) != math.Float32bits(want) {
				t.Fatalf("variance %v dv %v word %#x: lane %v, Finish %v", variance, dvs[i], words[i], dst[i], want)
			}
		}
	})
}

// TestCandidateBlockMatchesCandidate sweeps seeded normals and uniforms
// through both CandidateBlock kernels (dense, and sparse with a third
// of the normals invalid) and requires every candidate and decision to
// equal Candidate's.
func TestCandidateBlockMatchesCandidate(t *testing.T) {
	const n = 1 << 12
	rounds := 64
	if raceEnabled {
		rounds = 4
	}
	src := mt.NewMT19937(3)
	w := make([]uint32, n)
	n0 := make([]float32, n)
	nok := make([]bool, n)
	u1 := make([]uint32, n)
	dv := make([]float64, n)
	acc := make([]bool, n)
	for _, v := range []float64{0.5, 1 / 0.72, 3} {
		p := MustFromVariance(v)
		for r := 0; r < rounds; r++ {
			src.FillUint32(w)
			normal.ICDFFPGAFill(n0, nok, w)
			src.FillUint32(u1)
			valid := n
			if r%2 == 1 {
				for i := range nok {
					nok[i] = i%3 != 0
				}
				valid = n - (n+2)/3
			}
			p.CandidateBlock(dv, acc, n0, nok, u1[:valid])
			j := 0
			for i := range n0 {
				if !nok[i] {
					if acc[i] {
						t.Fatalf("v=%g slot %d: invalid normal accepted", v, i)
					}
					continue
				}
				wantDV, wantAcc := p.Candidate(n0[i], rng.U32ToFloatOpen(u1[j]))
				j++
				if acc[i] != wantAcc || (wantAcc && dv[i] != wantDV) {
					t.Fatalf("v=%g slot %d: block (%v, %v), Candidate (%v, %v)", v, i, dv[i], acc[i], wantDV, wantAcc)
				}
			}
			for i := range nok {
				nok[i] = true
			}
		}
	}
}

// TestSqueezeFailureShare counts the slots candidateBlockDense sends
// to its two-logarithm pass: ICDF normals at v = 1.39 whose cube is
// valid but whose polynomial squeeze fails. The share, 8.1% of these
// 2^16 slots, is what its pass-2 comment quotes; E[min(1, 0.0331·x⁴)]
// for x ~ N(0,1) puts it near 8% too.
func TestSqueezeFailureShare(t *testing.T) {
	const n = 1 << 16
	p := MustFromVariance(1.39)
	src := mt.NewMT19937(12)
	w := make([]uint32, n)
	u1 := make([]uint32, n)
	src.FillUint32(w)
	src.FillUint32(u1)
	n0 := make([]float32, n)
	nok := make([]bool, n)
	normal.ICDFFPGAFill(n0, nok, w)
	fails := 0
	for i, z := range n0 {
		x := float64(z)
		cx := 1 + p.c*x
		v := cx * cx * cx
		u := float64(rng.U32ToFloatOpen(u1[i]))
		if v > 0 && !(u < 1-0.0331*x*x*x*x) {
			fails++
		}
	}
	share := float64(fails) / n
	t.Logf("%d of %d slots (%.2f%%) take the two-logarithm test", fails, n, 100*share)
	if math.Abs(share-0.081) > 0.005 {
		t.Fatalf("squeeze-failure share %.4f, want 0.081 ± 0.005", share)
	}
}

// TestLogTestMargins runs logTest on (normal, word) pairs whose two
// sides lie within logTestSlack of each other, so the exact math.Log
// comparison decides them, and requires Candidate's decisions. The
// pairs were found by bisecting for the normal at which the test's
// right-hand side crosses ln u, for about 2^21 lattice words; both
// outcomes occur.
func TestLogTestMargins(t *testing.T) {
	for _, c := range []struct {
		v    float64
		x    uint32 // float32 bits of the normal
		word uint32
	}{
		{0.5, 0xc00be012, 0xc9fe1200},
		{0.5, 0x3fd228d1, 0xf8604200},
		{0.5, 0xbf7bba95, 0xfe552300},
		{1 / 0.72, 0xbfefb81d, 0xdd529b00},
		{1 / 0.72, 0x3fa1db99, 0xfc9e1400},
		{1 / 0.72, 0x3f77e4c2, 0xfec4c100},
		{3, 0x3ff63119, 0xeb540e00},
		{3, 0xbec28914, 0xfff1eb00},
	} {
		p := MustFromVariance(c.v)
		n0 := []float32{math.Float32frombits(c.x)}
		x := float64(n0[0])
		cx := 1 + p.c*x
		v := cx * cx * cx
		u := float64(rng.U32ToFloatOpen(c.word))
		l, dl := xmath.Log(u), p.d*xmath.Log(v)
		r := 0.5*x*x + p.d - p.d*v + dl
		if math.Abs(r-l) > p.logTestSlack(l, dl, r) {
			t.Fatalf("v=%g x=%v word %#x: |r − l| = %g is outside the slack", c.v, x, c.word, math.Abs(r-l))
		}
		acc := []bool{false}
		got := p.logTest(acc, n0, []int32{0}, []float64{u}, []float64{v})
		_, want := p.Candidate(n0[0], rng.U32ToFloatOpen(c.word))
		if acc[0] != want || (got == 1) != want {
			t.Errorf("v=%g x=%v word %#x: logTest %v (%d accepted), Candidate %v", c.v, x, c.word, acc[0], got, want)
		}
	}
}

// BenchmarkFinishBlock times the boost correction over a block of 256
// accepted candidates at v = 1.39: "exact" calls Finish value by value,
// "lane" is FinishBlock.
func BenchmarkFinishBlock(b *testing.B) {
	const n = 256
	p := MustFromVariance(1.39)
	src := mt.NewMT19937(9)
	u2 := make([]uint32, n)
	src.FillUint32(u2)
	dv := make([]float64, n)
	for i := range dv {
		dv[i] = 0.5 + float64(u2[(i+1)%n]>>8)*0x1p-23
	}
	dst := make([]float32, n)
	pw := make([]float64, n)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, d := range dv {
				dst[k] = p.Finish(d, rng.U32ToFloatOpen(u2[k]))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
	b.Run("lane", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.FinishBlock(dst, dv, u2, pw)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	})
}

// BenchmarkCandidateBlock times the Marsaglia-Tsang test over a block
// of 256 candidates at v = 1.39, for the dense kernel (ICDF normals)
// and the sparse one (polar normals, about a fifth invalid); about 8%
// of the candidates reach the two-logarithm test
// (TestSqueezeFailureShare).
func BenchmarkCandidateBlock(b *testing.B) {
	const n = 256
	p := MustFromVariance(1.39)
	src := mt.NewMT19937(10)
	w1 := make([]uint32, n)
	w2 := make([]uint32, n)
	u1 := make([]uint32, n)
	src.FillUint32(w1)
	src.FillUint32(w2)
	src.FillUint32(u1)
	dv := make([]float64, n)
	acc := make([]bool, n)
	for _, k := range []normal.Kind{normal.ICDFFPGA, normal.MarsagliaBray} {
		n0 := make([]float32, n)
		nok := make([]bool, n)
		valid := normal.FillNormal(k, n0, nok, w1, w2)
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.CandidateBlock(dv, acc, n0, nok, u1[:valid])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/candidate")
		})
	}
}

// BenchmarkLogTest times logTest alone on the squeeze failures of 4096
// ICDF candidates at v = 1.39, gathered in chunks of logChunk as
// CandidateBlock gathers them; the inputs are copied back before each
// chunk, as logTest may overwrite them.
func BenchmarkLogTest(b *testing.B) {
	const n = 4096
	p := MustFromVariance(1.39)
	src := mt.NewMT19937(11)
	w := make([]uint32, n)
	u1 := make([]uint32, n)
	src.FillUint32(w)
	src.FillUint32(u1)
	n0 := make([]float32, n)
	nok := make([]bool, n)
	normal.ICDFFPGAFill(n0, nok, w)
	var at []int32
	var lu, lv []float64
	for i, z := range n0 {
		x := float64(z)
		cx := 1 + p.c*x
		v := cx * cx * cx
		u := float64(rng.U32ToFloatOpen(u1[i]))
		if v > 0 && !(u < 1-0.0331*x*x*x*x) {
			at, lu, lv = append(at, int32(i)), append(lu, u), append(lv, v)
		}
	}
	m := len(at) / logChunk * logChunk
	acc := make([]bool, n)
	var bu, bv [logChunk]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < m; lo += logChunk {
			copy(bu[:], lu[lo:])
			copy(bv[:], lv[lo:])
			p.logTest(acc, n0, at[lo:lo+logChunk], bu[:], bv[:])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/test")
}
