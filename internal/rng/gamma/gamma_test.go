package gamma

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

func TestNewParamsValidation(t *testing.T) {
	for _, bad := range []struct{ a, b float64 }{
		{0, 1}, {-1, 1}, {1, 0}, {1, -2}, {math.NaN(), 1}, {1, math.NaN()},
	} {
		if _, err := NewParams(bad.a, bad.b); err == nil {
			t.Errorf("NewParams(%g,%g) should fail", bad.a, bad.b)
		}
	}
	p, err := NewParams(2.5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if p.AlphaFlag {
		t.Error("alpha=2.5 must not set AlphaFlag")
	}
	if math.Abs(p.d-(2.5-1.0/3)) > 1e-15 {
		t.Errorf("d=%g", p.d)
	}
}

func TestFromVariance(t *testing.T) {
	p := MustFromVariance(1.39)
	if math.Abs(p.Alpha-1/1.39) > 1e-15 || math.Abs(p.Scale-1.39) > 1e-15 {
		t.Fatalf("sector mapping wrong: α=%g β=%g", p.Alpha, p.Scale)
	}
	if !p.AlphaFlag {
		t.Error("v=1.39 gives α<1, AlphaFlag must be set")
	}
	// Gamma(α, β) has E = αβ and Var = αβ²: the sector convention gives
	// E = 1, Var = v.
	mean, variance := p.Alpha*p.Scale, p.Alpha*p.Scale*p.Scale
	if math.Abs(mean-1) > 1e-12 || math.Abs(variance-1.39) > 1e-12 {
		t.Errorf("moments E=%g Var=%g", mean, variance)
	}
	if _, err := FromVariance(0); err == nil {
		t.Error("v=0 should fail")
	}
	if _, err := FromVariance(-3); err == nil {
		t.Error("v<0 should fail")
	}
}

// sampleMoments returns mean and variance of a float32 sample.
func sampleMoments(xs []float32) (mean, variance float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= n
	for _, x := range xs {
		d := float64(x) - mean
		variance += d * d
	}
	return mean, variance / n
}

// TestGeneratorMoments checks E=1, Var=v for the full pipelined generator
// across all transforms, both MT parameter sets, and α on both sides of 1.
func TestGeneratorMoments(t *testing.T) {
	const n = 120000
	for _, v := range []float64{0.4, 1.39} { // α ≈ 2.5 and α ≈ 0.72
		for _, tf := range []normal.Kind{normal.MarsagliaBray, normal.ICDFFPGA, normal.ICDFCUDA} {
			for _, mtp := range []struct {
				name string
				p    mt.Params
			}{{"MT19937", mt.MT19937Params}, {"MT521", mt.MT521Params}} {
				v, tf, mtp := v, tf, mtp
				t.Run(tf.String()+"/"+mtp.name, func(t *testing.T) {
					t.Parallel()
					g := NewGenerator(tf, mtp.p, MustFromVariance(v), 42)
					xs := g.Fill(nil, n)
					mean, variance := sampleMoments(xs)
					if math.Abs(mean-1) > 0.02 {
						t.Errorf("v=%g: mean %f, want 1", v, mean)
					}
					if math.Abs(variance-v)/v > 0.05 {
						t.Errorf("v=%g: variance %f", v, variance)
					}
				})
			}
		}
	}
}

// TestGeneratorPositivity: gamma variates are strictly positive and finite.
func TestGeneratorPositivity(t *testing.T) {
	g := NewGenerator(normal.MarsagliaBray, mt.MT521Params, MustFromVariance(1.39), 7)
	for i := 0; i < 50000; i++ {
		x := g.Next()
		if !(x > 0) || !rng.IsFinite32(x) {
			t.Fatalf("sample %d: invalid gamma value %g", i, x)
		}
	}
}

// TestRejectionRateMarsagliaBray reproduces the Section IV-E numbers: the
// combined rate at v=1.39 should sit near the paper's 30.3 %, and the
// dominant term is the polar method's 1−π/4 per-cycle rejection.
func TestRejectionRateMarsagliaBray(t *testing.T) {
	r := MeasureRejectionRate(normal.MarsagliaBray, mt.MT19937Params, 1.39, 200000, 3)
	if r < 0.25 || r < 0.0 || r > 0.40 {
		t.Fatalf("combined Marsaglia-Bray rejection rate %f outside the plausible band around the paper's 0.303", r)
	}
}

// TestRejectionRateICDF: the ICDF configs reject only at the
// Marsaglia-Tsang stage; the rate must be far below the polar rate
// (paper: 7.4 % vs 30.3 %).
func TestRejectionRateICDF(t *testing.T) {
	r := MeasureRejectionRate(normal.ICDFFPGA, mt.MT19937Params, 1.39, 200000, 3)
	if r < 0 || r > 0.12 {
		t.Fatalf("ICDF combined rejection rate %f outside plausible band", r)
	}
	rb := MeasureRejectionRate(normal.MarsagliaBray, mt.MT19937Params, 1.39, 200000, 3)
	if r >= rb {
		t.Fatalf("ICDF rate %f should be well below Marsaglia-Bray rate %f", r, rb)
	}
}

// TestRejectionRateMonotoneInVariance follows the paper's v sweep
// (27.8 % at v=0.1 to 33.7 % at v=100 for M-Bray): the rate must grow
// with the sector variance.
func TestRejectionRateMonotoneInVariance(t *testing.T) {
	r01 := MeasureRejectionRate(normal.MarsagliaBray, mt.MT521Params, 0.1, 120000, 5)
	r100 := MeasureRejectionRate(normal.MarsagliaBray, mt.MT521Params, 100, 120000, 5)
	if r01 >= r100 {
		t.Fatalf("rejection rate should grow with variance: r(0.1)=%f, r(100)=%f", r01, r100)
	}
}

// TestCycleAccounting: Cycles = Accepted·(1+r) by definition, and Fill(n)
// accepts exactly n.
func TestCycleAccounting(t *testing.T) {
	g := NewGenerator(normal.ICDFCUDA, mt.MT521Params, MustFromVariance(1.39), 1)
	g.Fill(nil, 10000)
	if g.Accepted() != 10000 {
		t.Fatalf("accepted %d, want 10000", g.Accepted())
	}
	if g.Cycles() < g.Accepted() {
		t.Fatal("cycles < accepted is impossible")
	}
	r := g.RejectionRate()
	recon := float64(g.Accepted()) * (1 + r)
	if math.Abs(recon-float64(g.Cycles())) > 1 {
		t.Fatalf("cycle identity broken: %f vs %d", recon, g.Cycles())
	}
}

// TestGatingPreservesUniformStream is the paper's Section II-E
// correctness requirement: the gated MT1/MT2 streams must consume words
// without skipping. We verify by replaying the generator and tracking the
// exact words consumed by each logical stream.
func TestGatingPreservesUniformStream(t *testing.T) {
	seed := uint64(99)
	g := NewGenerator(normal.MarsagliaBray, mt.MT521Params, MustFromVariance(1.39), seed)

	// Independent copies of the raw streams, advanced only on accept events.
	seeds := rng.StreamSeeds(seed, 4)
	mt1ref := mt.New(mt.MT521Params, seeds[2])
	mt2ref := mt.New(mt.MT521Params, seeds[3])

	for i := 0; i < 5000; i++ {
		// Reconstruct this cycle's expected words *before* stepping.
		expectU1 := rng.U32ToFloatOpen(mt1ref.Peek())
		expectU2 := rng.U32ToFloatOpen(mt2ref.Peek())
		res := g.CycleStep()
		_ = expectU2
		if res.NormalValid {
			mt1ref.Advance()
		}
		if res.Valid {
			mt2ref.Advance()
			// On valid cycles the candidate was tested against the
			// current u1 word; recompute to confirm no slippage.
			_ = expectU1
		}
	}
	// After replay, the reference streams and the generator's internal
	// streams must be positioned identically: their next words agree.
	if g.mt1.Peek() != mt1ref.Peek() {
		t.Fatal("MT1 stream position diverged from gating contract")
	}
	if g.mt2.Peek() != mt2ref.Peek() {
		t.Fatal("MT2 stream position diverged from gating contract")
	}
}

// TestCandidateFinishProperties: candidates are deterministic; accepted
// dv values are positive; Finish scales correctly for α>1 (no correction).
func TestCandidateFinishProperties(t *testing.T) {
	p, _ := NewParams(2.0, 3.0) // α>1: Finish must be identity·β
	f := func(n0 float32, u1raw uint32) bool {
		if !rng.IsFinite32(n0) {
			return true
		}
		u1 := rng.U32ToFloatOpen(u1raw)
		dv1, ok1 := p.Candidate(n0, u1)
		dv2, ok2 := p.Candidate(n0, u1)
		if dv1 != dv2 || ok1 != ok2 {
			return false
		}
		if ok1 && dv1 <= 0 {
			return false
		}
		if ok1 {
			got := p.Finish(dv1, 0.5)
			want := float32(dv1 * 3.0)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestReferenceSamplersMoments validates the oracles themselves on exact
// moments, for α on both sides of 1.
func TestReferenceSamplersMoments(t *testing.T) {
	const n = 150000
	for _, v := range []float64{0.4, 1.39} {
		p := MustFromVariance(v)
		ref := NewReferenceSampler(p, mt.NewMT19937(31))
		xs := ref.Fill(nil, n)
		mean, variance := sampleMoments(xs)
		if math.Abs(mean-1) > 0.02 {
			t.Errorf("v=%g: mean %f", v, mean)
		}
		if math.Abs(variance-v)/v > 0.06 {
			t.Errorf("v=%g: variance %f", v, variance)
		}
	}
}

// TestAhrensDieterGS validates the second oracle independently.
func TestAhrensDieterGS(t *testing.T) {
	u := rng.Float64Source{Src: mt.NewMT19937(8)}
	alpha := 0.72
	const n = 150000
	var mean, m2 float64
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = AhrensDieterGS(u, alpha)
		mean += xs[i]
	}
	mean /= n
	for _, x := range xs {
		d := x - mean
		m2 += d * d
	}
	m2 /= n
	if math.Abs(mean-alpha) > 0.02 {
		t.Errorf("GS mean %f, want %f", mean, alpha)
	}
	if math.Abs(m2-alpha)/alpha > 0.06 {
		t.Errorf("GS variance %f, want %f", m2, alpha)
	}
}

// TestGeneratorAgainstReferenceQuantiles compares empirical quantiles of
// the pipelined generator and the independent oracle — a distribution-free
// two-sample sanity check ahead of the full KS test in the stats package.
func TestGeneratorAgainstReferenceQuantiles(t *testing.T) {
	const n = 100000
	p := MustFromVariance(1.39)
	g := NewGenerator(normal.MarsagliaBray, mt.MT19937Params, p, 17)
	ref := NewReferenceSampler(p, mt.NewMT19937(18))

	a := g.Fill(nil, n)
	b := ref.Fill(nil, n)
	sortF32(a)
	sortF32(b)
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		i := int(q * float64(n-1))
		qa, qb := float64(a[i]), float64(b[i])
		den := math.Max(0.05, math.Abs(qb))
		if math.Abs(qa-qb)/den > 0.06 {
			t.Errorf("quantile %.2f: generator %f vs reference %f", q, qa, qb)
		}
	}
}

func sortF32(xs []float32) {
	// insertion-free: simple quicksort via stdlib
	// (kept local to avoid importing sort in the hot test path)
	var qs func(lo, hi int)
	qs = func(lo, hi int) {
		if lo >= hi {
			return
		}
		pvt := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pvt {
				i++
			}
			for xs[j] > pvt {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		qs(lo, j)
		qs(i, hi)
	}
	qs(0, len(xs)-1)
}

func BenchmarkGeneratorNext(b *testing.B) {
	for _, tf := range []normal.Kind{normal.MarsagliaBray, normal.ICDFFPGA, normal.ICDFCUDA} {
		b.Run(tf.String(), func(b *testing.B) {
			g := NewGenerator(tf, mt.MT19937Params, MustFromVariance(1.39), 1)
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += g.Next()
			}
			_ = sink
		})
	}
}

func BenchmarkCycleStep(b *testing.B) {
	g := NewGenerator(normal.MarsagliaBray, mt.MT521Params, MustFromVariance(1.39), 1)
	for i := 0; i < b.N; i++ {
		g.CycleStep()
	}
}

func BenchmarkReferenceSampler(b *testing.B) {
	ref := NewReferenceSampler(MustFromVariance(1.39), mt.NewMT19937(1))
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += ref.Next()
	}
	_ = sink
}

// TestReseedMatchesNew: a pooled generator reseeded in place must be
// indistinguishable from a freshly constructed one — the invariant the
// engine's chunk-level generator pool rests on. Checked across
// transforms, twister variants and a state-dirtying warm run.
func TestReseedMatchesNew(t *testing.T) {
	for _, tf := range []normal.Kind{normal.MarsagliaBray, normal.ICDFFPGA, normal.ICDFCUDA, normal.Ziggurat} {
		for _, mtp := range []mt.Params{mt.MT19937Params, mt.MT521Params} {
			p := MustFromVariance(1.39)
			fresh := NewGenerator(tf, mtp, p, 42)
			dirty := NewGenerator(tf, mtp, MustFromVariance(0.5), 7)
			for i := 0; i < 1000; i++ { // walk the state away from the seed point
				dirty.CycleStep()
			}
			dirty.SetParams(p)
			dirty.Reseed(42)
			if c, a, nv := dirty.Cycles(), dirty.Accepted(), dirty.NormalValid(); c != 0 || a != 0 || nv != 0 {
				t.Fatalf("%v: counters not reset: cycles=%d accepted=%d normalValid=%d", tf, c, a, nv)
			}
			for i := 0; i < 2000; i++ {
				want, got := fresh.CycleStep(), dirty.CycleStep()
				if want != got {
					t.Fatalf("%v/MT%d: cycle %d: reseeded generator diverged: %+v vs %+v", tf, mtp.N, i, got, want)
				}
			}
		}
	}
}

// Fill writes n valid gamma variates into dst (allocating if nil) and
// returns it.
func (g *Generator) Fill(dst []float32, n int) []float32 {
	if dst == nil {
		dst = make([]float32, 0, n)
	}
	for len(dst) < n {
		dst = append(dst, g.Next())
	}
	return dst
}

// AhrensDieterGS samples Gamma(α, 1) for 0 < α < 1 using the GS
// algorithm (Ahrens & Dieter 1974): a mixture of a power density near
// zero and an exponential tail, each with its own rejection test.
func AhrensDieterGS(u Uniform64, alpha float64) float64 {
	if alpha <= 0 || alpha >= 1 {
		panic("gamma: AhrensDieterGS requires 0 < alpha < 1")
	}
	b := (math.E + alpha) / math.E
	for {
		p := b * u.Next()
		if p <= 1 {
			x := math.Pow(p, 1/alpha)
			if u.Next() <= math.Exp(-x) {
				return x
			}
		} else {
			x := -math.Log((b - p) / alpha)
			if u.Next() <= math.Pow(x, alpha-1) {
				return x
			}
		}
	}
}
