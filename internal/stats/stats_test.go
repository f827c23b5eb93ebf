package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/decwi/decwi/internal/rng/gamma"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

// TestRegularizedGammaKnownValues pins P(a,x) against hand-checkable
// identities: P(1,x) = 1−e^{−x}, P(1/2, x) = erf(√x), and the median-ish
// relation P(a,a) ≈ 0.5 for large a.
func TestRegularizedGammaKnownValues(t *testing.T) {
	for _, x := range []float64{0.01, 0.5, 1, 3, 10} {
		if got, want := RegularizedGammaP(1, x), 1-math.Exp(-x); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(1,%g)=%g want %g", x, got, want)
		}
		if got, want := RegularizedGammaP(0.5, x), math.Erf(math.Sqrt(x)); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(0.5,%g)=%g want %g", x, got, want)
		}
	}
	if got := RegularizedGammaP(1000, 1000); math.Abs(got-0.5) > 0.01 {
		t.Errorf("P(a,a) for large a should approach 1/2, got %g", got)
	}
}

// TestRegularizedGammaEdgeCases covers the domain boundary contract.
func TestRegularizedGammaEdgeCases(t *testing.T) {
	if RegularizedGammaP(2, 0) != 0 {
		t.Error("x=0 boundary wrong")
	}
	if RegularizedGammaP(2, math.Inf(1)) != 1 {
		t.Error("x=Inf should give P=1")
	}
	for _, bad := range []struct{ a, x float64 }{{-1, 1}, {0, 1}, {2, -1}, {math.NaN(), 1}, {1, math.NaN()}} {
		if !math.IsNaN(RegularizedGammaP(bad.a, bad.x)) {
			t.Errorf("P(%g,%g) should be NaN", bad.a, bad.x)
		}
	}
}

// TestRegularizedGammaMonotone: P(a,·) is nondecreasing in x (property
// test over random evaluation points).
func TestRegularizedGammaMonotone(t *testing.T) {
	f := func(aRaw, x1Raw, x2Raw uint32) bool {
		a := 0.05 + float64(aRaw%1000)/100 // 0.05 .. 10.04
		x1 := float64(x1Raw%100000) / 1000 // 0 .. 100
		x2 := float64(x2Raw%100000) / 1000
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return RegularizedGammaP(a, x1) <= RegularizedGammaP(a, x2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestGammaDistBasics checks PDF normalization against the CDF (by
// numerical quadrature) and the constructor's domain.
func TestGammaDistBasics(t *testing.T) {
	for _, v := range []float64{0.4, 1.39, 5} {
		g, err := NewGammaDist(1/v, v)
		if err != nil {
			t.Fatal(err)
		}
		// PDF/CDF consistency on a pole-free interval: ∫₁⁵ pdf dx must
		// equal CDF(5)−CDF(1). (For α<1 the density has an integrable
		// pole at 0, so a naive quadrature over the full support is not
		// a meaningful check.)
		lo, hi := 1.0, 5.0
		const steps = 200000
		h := (hi - lo) / steps
		integ := 0.0
		prev := g.PDF(lo)
		for i := 1; i <= steps; i++ {
			x := lo + float64(i)*h
			cur := g.PDF(x)
			integ += (prev + cur) / 2 * h
			prev = cur
		}
		if want := g.CDF(hi) - g.CDF(lo); math.Abs(integ-want) > 1e-6 {
			t.Errorf("v=%g: ∫₁⁵ pdf = %g, CDF diff = %g", v, integ, want)
		}
	}
	if _, err := NewGammaDist(0, 1); err == nil {
		t.Error("α=0 should fail")
	}
}

// draw returns the generator's next n valid variates.
func draw(g *gamma.Generator, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// TestKSAcceptsOwnDistribution: gamma samples from the independent
// reference sampler must pass a KS test against the analytic gamma CDF.
func TestKSAcceptsOwnDistribution(t *testing.T) {
	p := gamma.MustFromVariance(1.39)
	ref := gamma.NewReferenceSampler(p, mt.NewMT19937(2))
	xs := Float32To64(ref.Fill(nil, 50000))
	g, _ := NewGammaDist(p.Alpha, p.Scale)
	res := KSTestOneSample(xs, g.CDF)
	if res.PValue < 0.001 {
		t.Fatalf("reference sampler rejected by KS: D=%g p=%g", res.D, res.PValue)
	}
}

// TestKSRejectsWrongDistribution: the test must have power — normal
// samples against a gamma CDF must fail decisively.
func TestKSRejectsWrongDistribution(t *testing.T) {
	src := mt.NewMT19937(3)
	xs := make([]float64, 0, 20000)
	for len(xs) < 20000 {
		z, ok := normal.ICDFCUDAStep(src.Uint32())
		if ok {
			xs = append(xs, float64(z)+1) // shift to overlap the gamma support
		}
	}
	g, _ := NewGammaDist(1/1.39, 1.39)
	res := KSTestOneSample(xs, g.CDF)
	if res.PValue > 1e-6 {
		t.Fatalf("KS failed to reject a wrong distribution: p=%g", res.PValue)
	}
}

// TestKSTwoSampleSelfConsistency: two disjoint streams of the same
// generator pass; generator-vs-reference passes (the Fig. 6 claim);
// different variances fail.
func TestKSTwoSampleSelfConsistency(t *testing.T) {
	const n = 40000
	p := gamma.MustFromVariance(1.39)
	g1 := gamma.NewGenerator(normal.MarsagliaBray, mt.MT19937Params, p, 10)
	g2 := gamma.NewGenerator(normal.ICDFFPGA, mt.MT19937Params, p, 20)
	a := Float32To64(draw(g1, n))
	b := Float32To64(draw(g2, n))
	if res := KSTestTwoSample(a, b); res.PValue < 0.001 {
		t.Fatalf("two transforms of same distribution rejected: D=%g p=%g", res.D, res.PValue)
	}
	g3 := gamma.NewGenerator(normal.MarsagliaBray, mt.MT19937Params, gamma.MustFromVariance(2.5), 30)
	c := Float32To64(draw(g3, n))
	if res := KSTestTwoSample(a, c); res.PValue > 1e-6 {
		t.Fatalf("different variances not rejected: D=%g p=%g", res.D, res.PValue)
	}
}

// TestHistogram covers binning edges and density normalization.
func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-0.1) // under
	h.Add(0)    // bin 0
	h.Add(9.999999)
	h.Add(10) // over
	h.Add(5)
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Counts[0] != 1 || h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Fatalf("counts %v", h.Counts)
	}
	if h.Total != 5 {
		t.Fatalf("total %d", h.Total)
	}
	if _, err := NewHistogram(1, 1, 10); err == nil {
		t.Error("empty range should fail")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins should fail")
	}

	// Density sums (times width) to the in-range fraction.
	sum := 0.0
	for i := range h.Counts {
		sum += h.Density(i) * h.BinWidth()
	}
	if math.Abs(sum-3.0/5.0) > 1e-12 {
		t.Fatalf("density mass %g, want 0.6", sum)
	}
}

// TestHistogramAgainstGammaPDF is the Fig. 6 machinery end to end: the
// pipelined generator's histogram must approach the analytic density as
// samples grow.
func TestHistogramAgainstGammaPDF(t *testing.T) {
	p := gamma.MustFromVariance(1.39)
	gd, _ := NewGammaDist(p.Alpha, p.Scale)
	gen := gamma.NewGenerator(normal.MarsagliaBray, mt.MT19937Params, p, 6)

	errAt := func(n int) float64 {
		h, _ := NewHistogram(0.05, 8, 80)
		h.AddAll(draw(gen, n))
		// Sup-distance between the histogram density and the PDF at bin
		// centres, over bins expecting at least 20 observations.
		maxErr := 0.0
		for i := range h.Counts {
			want := gd.PDF(h.BinCenter(i))
			if want*float64(h.Total)*h.BinWidth() < 20 {
				continue
			}
			maxErr = math.Max(maxErr, math.Abs(h.Density(i)-want))
		}
		return maxErr
	}
	small := errAt(2000)
	large := errAt(200000)
	if large > small {
		t.Fatalf("density error did not shrink with samples: %g -> %g", small, large)
	}
	if large > 0.05 {
		t.Fatalf("density error at 200k samples too large: %g", large)
	}
}

func BenchmarkRegularizedGammaP(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += RegularizedGammaP(0.719, float64(i%100)/10+0.01)
	}
	_ = sink
}

func BenchmarkKSTestOneSample(b *testing.B) {
	p := gamma.MustFromVariance(1.39)
	ref := gamma.NewReferenceSampler(p, mt.NewMT19937(2))
	xs := Float32To64(ref.Fill(nil, 10000))
	g, _ := NewGammaDist(p.Alpha, p.Scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSTestOneSample(xs, g.CDF)
	}
}

// TestAndersonDarlingAcceptsAndRejects: AD accepts its own distribution,
// rejects a tail-corrupted sample that KS barely notices, and the
// critical-value table behaves.
func TestAndersonDarling(t *testing.T) {
	p := gamma.MustFromVariance(1.39)
	g, _ := NewGammaDist(p.Alpha, p.Scale)
	ref := gamma.NewReferenceSampler(p, mt.NewMT19937(9))
	xs := Float32To64(ref.Fill(nil, 20000))

	res, err := ADTestOneSample(xs, g.CDF)
	if err != nil {
		t.Fatal(err)
	}
	rej, err := res.RejectAt(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if rej {
		t.Fatalf("AD rejected the correct distribution: A2=%g", res.A2)
	}

	// Corrupt the tail: clamp the top 2% of the sample.
	bad := append([]float64(nil), xs...)
	sort.Float64s(bad)
	q := bad[len(bad)*98/100]
	for i := range bad {
		if bad[i] > q {
			bad[i] = q
		}
	}
	res2, err := ADTestOneSample(bad, g.CDF)
	if err != nil {
		t.Fatal(err)
	}
	rej2, _ := res2.RejectAt(0.01)
	if !rej2 {
		t.Fatalf("AD missed a clamped tail: A2=%g", res2.A2)
	}

	// Error paths.
	if _, err := ADTestOneSample(xs[:3], g.CDF); err == nil {
		t.Error("n<5 should fail")
	}
	if _, err := res.RejectAt(0.5); err == nil {
		t.Error("untabulated alpha should fail")
	}
}
