package normal

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/mt"
)

// TestWichuraAgainstStdlibErfinv cross-checks AS241 against the identity
// Φ⁻¹(p) = √2·erfinv(2p−1) using the standard library's erfinv.
func TestWichuraAgainstStdlibErfinv(t *testing.T) {
	for p := 1e-10; p < 1; p += 0.001 {
		want := math.Sqrt2 * math.Erfinv(2*p-1)
		got := InverseNormalCDF(p)
		// Both implementations are ~1e-16 relative in the centre, but
		// stdlib erfinv itself carries ~1e-8 absolute error in the deep
		// tail, so the agreement bound is set by the weaker of the two.
		if math.Abs(got-want) > 5e-8*(1+math.Abs(want)) {
			t.Fatalf("p=%g: AS241 %.12g vs stdlib %.12g", p, got, want)
		}
	}
}

// TestWichuraRoundTrip verifies Φ(Φ⁻¹(p)) = p across 12 decades of tail
// probability.
func TestWichuraRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25,
		0.5, 0.75, 0.9, 0.99, 1 - 1e-6, 1 - 1e-9} {
		z := InverseNormalCDF(p)
		back := NormalCDF(z)
		if math.Abs(back-p) > 1e-10*(1+p) && math.Abs(back-p)/p > 1e-6 {
			t.Fatalf("p=%g: round trip gave %g (z=%g)", p, back, z)
		}
	}
}

// TestWichuraEdgeCases pins the domain-boundary behaviour.
func TestWichuraEdgeCases(t *testing.T) {
	if !math.IsInf(InverseNormalCDF(0), -1) {
		t.Error("p=0 should be -Inf")
	}
	if !math.IsInf(InverseNormalCDF(1), +1) {
		t.Error("p=1 should be +Inf")
	}
	if !math.IsNaN(InverseNormalCDF(math.NaN())) {
		t.Error("NaN should propagate")
	}
	if v := InverseNormalCDF(0.5); v != 0 {
		t.Errorf("p=0.5 should be exactly 0, got %g", v)
	}
	// Antisymmetry.
	for _, p := range []float64{0.01, 0.1, 0.3} {
		a, b := InverseNormalCDF(p), InverseNormalCDF(1-p)
		if math.Abs(a+b) > 1e-12 {
			t.Errorf("antisymmetry violated at p=%g: %g vs %g", p, a, b)
		}
	}
}

// TestGilesErfinvAccuracy measures the single-precision approximation
// against the double-precision oracle. Giles reports ~6-7 correct digits
// in the central branch; we assert a conservative bound.
func TestGilesErfinvAccuracy(t *testing.T) {
	maxErr := 0.0
	for x := -0.99999; x < 1; x += 0.0001 {
		want := math.Erfinv(x)
		got := float64(ErfinvGiles(float32(x)))
		err := math.Abs(got - want)
		if err > maxErr {
			maxErr = err
		}
	}
	if maxErr > 3e-4 {
		t.Fatalf("max abs error %g exceeds bound", maxErr)
	}
}

// TestICDFCUDAMatchesOracle checks the CUDA-style step against the
// Wichura oracle on random words.
func TestICDFCUDAMatchesOracle(t *testing.T) {
	src := rng.NewSplitMix64(11)
	maxErr := 0.0
	for i := 0; i < 200000; i++ {
		w := src.Uint32()
		z, ok := ICDFCUDAStep(w)
		if !ok {
			t.Fatalf("word %#x unexpectedly invalid", w)
		}
		u := float64(rng.U32ToFloatOpen(w))
		want := InverseNormalCDF(u)
		if err := math.Abs(float64(z) - want); err > maxErr {
			maxErr = err
		}
	}
	if maxErr > 5e-4 {
		t.Fatalf("max abs error %g vs oracle", maxErr)
	}
}

// TestUniformLatticeEdges pins the edges of the word → uniform
// conversions the transforms consume, as the bytes stand: the lower
// half of the U32ToFloatOpen lattice sits at half steps, the upper half
// rounds (m+0.5) to even so pairs of words share a value, words ≥
// 0xFFFFFF00 give exactly 1, U32ToSigned gives exactly 0 at 0x80000000
// and exactly 1 at the top, and ICDFCUDAStep fails only on the top
// words. A conversion fix moves every golden digest; this table makes
// such a change show up here as a deliberate one.
func TestUniformLatticeEdges(t *testing.T) {
	inf := float32(math.Inf(-1))
	cases := []struct {
		w      uint32
		open   float32
		signed float32
		icdfOK bool
	}{
		{0x00000000, 0x1p-25, -1 + 0x1p-24, true},
		{0x000000FF, 0x1p-25, -1 + 0x1p-24, true},
		{0x7FFFFFFF, 0.5 - 0x1p-25, -0x1p-24, true},
		{0x80000000, 0.5, 0, true},
		{0x800000FF, 0.5, 0, true},
		{0x80000100, 0.5 + 0x1p-23, 0x1p-22, true}, // m = 2^23+1 rounds up to m+1 ...
		{0x80000200, 0.5 + 0x1p-23, 0x1p-22, true}, // ... and shares m = 2^23+2's value
		{0xFFFFFEFF, 1 - 0x1p-23, 1 - 0x1p-22, true},
		{0xFFFFFF00, 1, 1, false},
		{0xFFFFFFFF, 1, 1, false},
	}
	for _, c := range cases {
		if got := rng.U32ToFloatOpen(c.w); got != c.open {
			t.Errorf("U32ToFloatOpen(%#08x) = %g, want %g", c.w, got, c.open)
		}
		if got := rng.U32ToSigned(c.w); got != c.signed {
			t.Errorf("U32ToSigned(%#08x) = %g, want %g", c.w, got, c.signed)
		}
		z, ok := ICDFCUDAStep(c.w)
		if ok != c.icdfOK || (!ok && z != inf) {
			t.Errorf("ICDFCUDAStep(%#08x) = (%g, %v), want ok=%v (z = -Inf when not ok)", c.w, z, ok, c.icdfOK)
		}
	}
}

// TestICDFFPGAMatchesOracle checks the bit-level step against the oracle:
// reconstruct the exact x the hardware decomposition represents and bound
// the quantized-polynomial error.
func TestICDFFPGAMatchesOracle(t *testing.T) {
	src := rng.NewSplitMix64(12)
	maxErr := 0.0
	for i := 0; i < 200000; i++ {
		w := src.Uint32()
		z, ok := ICDFFPGAStep(w)
		if !ok {
			continue // saturated tail word
		}
		h := w >> 1
		x := (float64(h) + 0.5) / (1 << 32)
		want := InverseNormalCDF(x)
		if w&1 != 0 {
			want = -want
		}
		if err := math.Abs(float64(z) - want); err > maxErr {
			maxErr = err
		}
	}
	if maxErr > 5e-4 {
		t.Fatalf("max abs error %g vs oracle", maxErr)
	}
}

// TestICDFFPGASymmetry: flipping the sign bit must exactly negate the
// output (the hardware shares one magnitude datapath for both halves).
func TestICDFFPGASymmetry(t *testing.T) {
	f := func(w uint32) bool {
		a, okA := ICDFFPGAStep(w &^ 1)
		b, okB := ICDFFPGAStep(w | 1)
		return okA == okB && a == -b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestICDFFPGASaturation checks the beyond-deepest-octave path.
func TestICDFFPGASaturation(t *testing.T) {
	z, ok := ICDFFPGAStep(0)
	if ok {
		t.Error("h=0 should report saturation")
	}
	if z > -5.5 || z < -8 {
		t.Errorf("saturated value %g implausible for the deepest octave", z)
	}
	// Smallest non-saturating magnitude: leading one at bit 3 (octave 27).
	if _, ok := ICDFFPGAStep(uint32(1) << 4); !ok {
		t.Error("octave 27 input should be valid")
	}
	// One octave deeper saturates.
	if _, ok := ICDFFPGAStep(uint32(1) << 3); ok {
		t.Error("octave 28 input should saturate")
	}
}

// TestICDFFPGAMonotone verifies the piecewise quadratic is monotone over a
// dense sweep of magnitudes (a distribution-correctness requirement:
// Φ⁻¹ is strictly increasing).
func TestICDFFPGAMonotone(t *testing.T) {
	prev := float32(math.Inf(-1))
	// Sweep the lower half with increasing h: z must be non-decreasing.
	for h := uint32(1 << 4); h < 1<<31 && h >= 1<<4; h += 1 << 18 {
		z, _ := ICDFFPGAStep(h << 1)
		if z < prev {
			t.Fatalf("non-monotone at h=%#x: %g < %g", h, z, prev)
		}
		prev = z
	}
}

// TestPolarAcceptanceRate: the polar method accepts with probability π/4.
func TestPolarAcceptanceRate(t *testing.T) {
	src := mt.NewMT19937(5)
	const n = 500000
	acc := 0
	for i := 0; i < n; i++ {
		if _, ok := PolarStep(src.Uint32(), src.Uint32()); ok {
			acc++
		}
	}
	rate := float64(acc) / n
	want := math.Pi / 4
	if math.Abs(rate-want) > 0.005 {
		t.Fatalf("acceptance rate %f, want ≈ %f", rate, want)
	}
}

// moments computes sample mean, variance, skewness and excess kurtosis.
func moments(xs []float64) (mean, variance, skew, exKurt float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m3 /= n
	m4 /= n
	return mean, m2, m3 / math.Pow(m2, 1.5), m4/(m2*m2) - 3
}

// stepper runs transform k's step function over u, one candidate per
// call, consuming the words the block path would.
func stepper(k Kind, u rng.Source32) func() (float32, bool) {
	switch k {
	case MarsagliaBray:
		return func() (float32, bool) { return PolarStep(u.Uint32(), u.Uint32()) }
	case ICDFFPGA:
		return func() (float32, bool) { return ICDFFPGAStep(u.Uint32()) }
	case ICDFCUDA:
		return func() (float32, bool) { return ICDFCUDAStep(u.Uint32()) }
	case Ziggurat:
		return func() (float32, bool) { return ZigguratStep(u.Uint32(), u.Uint32(), u.Uint32()) }
	}
	panic("unknown transform kind")
}

// testNormalMoments collects n valid samples from a candidate stream and
// asserts N(0,1) moments within Monte-Carlo tolerance.
func testNormalMoments(t *testing.T, name string, next func() (float32, bool), n int) {
	t.Helper()
	xs := make([]float64, 0, n)
	guard := 0
	for len(xs) < n {
		z, ok := next()
		if ok {
			xs = append(xs, float64(z))
		}
		if guard++; guard > 20*n {
			t.Fatalf("%s: source rejects too often", name)
		}
	}
	mean, variance, skew, exKurt := moments(xs)
	if math.Abs(mean) > 0.02 {
		t.Errorf("%s: mean %f", name, mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("%s: variance %f", name, variance)
	}
	if math.Abs(skew) > 0.05 {
		t.Errorf("%s: skewness %f", name, skew)
	}
	if math.Abs(exKurt) > 0.12 {
		t.Errorf("%s: excess kurtosis %f", name, exKurt)
	}
}

// TestTransformsProduceStandardNormals runs the three Table I transforms
// over MT streams and validates their first four moments.
func TestTransformsProduceStandardNormals(t *testing.T) {
	const n = 200000
	for _, k := range []Kind{MarsagliaBray, ICDFFPGA, ICDFCUDA} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			testNormalMoments(t, k.String(), stepper(k, mt.NewMT19937(1234)), n)
		})
	}
}

// TestKindMetadata pins the descriptive helpers used by the cost models.
func TestKindMetadata(t *testing.T) {
	if !MarsagliaBray.Rejecting() || ICDFFPGA.Rejecting() || ICDFCUDA.Rejecting() {
		t.Error("Rejecting flags wrong")
	}
	if MarsagliaBray.UniformsPerCandidate() != 2 || ICDFFPGA.UniformsPerCandidate() != 1 {
		t.Error("UniformsPerCandidate wrong")
	}
	for _, k := range []Kind{MarsagliaBray, ICDFFPGA, ICDFCUDA, Ziggurat} {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestPolarStepDeterministic: identical words give identical results, and
// valid outputs are always finite.
func TestPolarStepDeterministic(t *testing.T) {
	f := func(w1, w2 uint32) bool {
		z1, ok1 := PolarStep(w1, w2)
		z2, ok2 := PolarStep(w1, w2)
		if z1 != z2 || ok1 != ok2 {
			return false
		}
		if ok1 && !rng.IsFinite32(z1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPolarStep(b *testing.B) {
	src := mt.NewMT19937(1)
	var sink float32
	for i := 0; i < b.N; i++ {
		z, _ := PolarStep(src.Uint32(), src.Uint32())
		sink += z
	}
	_ = sink
}

func BenchmarkICDFCUDAStep(b *testing.B) {
	src := mt.NewMT19937(1)
	var sink float32
	for i := 0; i < b.N; i++ {
		z, _ := ICDFCUDAStep(src.Uint32())
		sink += z
	}
	_ = sink
}

func BenchmarkICDFFPGAStep(b *testing.B) {
	src := mt.NewMT19937(1)
	var sink float32
	for i := 0; i < b.N; i++ {
		z, _ := ICDFFPGAStep(src.Uint32())
		sink += z
	}
	_ = sink
}

// NormalCDF evaluates Φ(x) in double precision via the complementary error
// function; it is used by the statistical validation layer and by tests of
// the inverse.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
