package normal

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/decwi/decwi/internal/rng/mt"
)

// TestZigguratTables: construction invariants — strictly decreasing
// layer densities, positive widths, table symmetry constants.
func TestZigguratTables(t *testing.T) {
	buildZiggurat()
	if zigFN[0] != 1 {
		t.Fatalf("fn[0]=%g", zigFN[0])
	}
	for i := 1; i < zigLayers; i++ {
		if zigFN[i] <= zigFN[i-1]-1 || zigFN[i] >= zigFN[i-1] {
			if zigFN[i] >= zigFN[i-1] {
				t.Fatalf("fn not decreasing at %d: %g >= %g", i, zigFN[i], zigFN[i-1])
			}
		}
		if zigWN[i] <= 0 {
			t.Fatalf("wn[%d]=%g", i, zigWN[i])
		}
	}
	if got := zigFN[zigLayers-1]; math.Abs(got-math.Exp(-0.5*zigR*zigR)) > 1e-12 {
		t.Fatalf("fn[last]=%g", got)
	}
}

// TestZigguratAcceptanceRate: the fast path plus accepted wedge/tail
// cycles should accept ~97.5 % + most of the rest; the per-cycle
// rejection is small but nonzero.
func TestZigguratAcceptanceRate(t *testing.T) {
	src := mt.NewMT19937(5)
	const n = 500000
	acc := 0
	for i := 0; i < n; i++ {
		if _, ok := ZigguratStep(src.Uint32(), src.Uint32(), src.Uint32()); ok {
			acc++
		}
	}
	rate := float64(acc) / n
	if rate < 0.97 || rate >= 1 {
		t.Fatalf("acceptance rate %f outside (0.97, 1)", rate)
	}
}

// TestZigguratDistribution: moments plus an inline KS test against the
// exact normal CDF, including explicit tail coverage beyond |z| > r
// (the base-strip path must populate the tails).
func TestZigguratDistribution(t *testing.T) {
	next := stepper(Ziggurat, mt.NewMT19937(11))
	const n = 400000
	xs := make([]float64, 0, n)
	tail := 0
	for len(xs) < n {
		z, ok := next()
		if !ok {
			continue
		}
		xs = append(xs, float64(z))
		if math.Abs(float64(z)) > zigR {
			tail++
		}
	}
	var mean, m2, m4 float64
	for _, x := range xs {
		mean += x
	}
	mean /= n
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m4 /= n
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean %f", mean)
	}
	if math.Abs(m2-1) > 0.02 {
		t.Errorf("variance %f", m2)
	}
	if math.Abs(m4/(m2*m2)-3) > 0.15 {
		t.Errorf("kurtosis %f", m4/(m2*m2))
	}
	// Tail mass beyond r: 2·Φ(−r) ≈ 5.75e-4.
	wantTail := 2 * NormalCDF(-zigR)
	gotTail := float64(tail) / n
	if gotTail < wantTail/3 || gotTail > wantTail*3 {
		t.Errorf("tail fraction %g, want ≈%g — base-strip path broken", gotTail, wantTail)
	}
	// Inline KS against Φ.
	sort.Float64s(xs)
	d := 0.0
	for i, x := range xs {
		f := NormalCDF(x)
		if dp := float64(i+1)/n - f; dp > d {
			d = dp
		}
		if dm := f - float64(i)/n; dm > d {
			d = dm
		}
	}
	// Critical value at α=0.001 is ≈1.95/√n.
	if d > 1.95/math.Sqrt(n) {
		t.Fatalf("KS D=%g exceeds the 0.1%% critical value", d)
	}
}

// TestZigguratSymmetry: the sign bit flips the output of the fast path
// deterministically.
func TestZigguratSymmetry(t *testing.T) {
	f := func(w1, w2, w3 uint32) bool {
		z1, ok1 := ZigguratStep(w1, w2, w3)
		z2, ok2 := ZigguratStep(w1, w2, w3)
		return z1 == z2 && ok1 == ok2 // deterministic
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestZigguratKindIntegration: the Kind enum metadata and the batch
// dispatch cover the new transform.
func TestZigguratKindIntegration(t *testing.T) {
	if Ziggurat.String() != "Ziggurat" {
		t.Error("name")
	}
	if !Ziggurat.Rejecting() {
		t.Error("ziggurat is a rejection method")
	}
	if Ziggurat.UniformsPerCandidate() != 3 {
		t.Error("draws per candidate")
	}
	w := make([]uint32, 3)
	mt.New(mt.MT521Params, 3).FillUint32(w)
	dst, ok := make([]float32, 1), make([]bool, 1)
	FillNormal(Ziggurat, dst, ok, w[:1], w[1:])
	if z, zok := ZigguratStep(w[0], w[1], w[2]); ok[0] != zok || (zok && dst[0] != z) {
		t.Error("FillNormal dispatch")
	}
}

func BenchmarkZigguratStep(b *testing.B) {
	src := mt.New(mt.MT521Params, 1)
	var sink float32
	for i := 0; i < b.N; i++ {
		z, _ := ZigguratStep(src.Uint32(), src.Uint32(), src.Uint32())
		sink += z
	}
	_ = sink
}
