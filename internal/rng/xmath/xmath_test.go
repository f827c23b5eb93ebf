package xmath

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/decwi/decwi/internal/rng"
)

// same reports bit equality, counting any two NaNs as equal.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkLog compares logValue and LogBlock with math.Log on every input.
func checkLog(t *testing.T, xs []float64) {
	t.Helper()
	blk := append([]float64(nil), xs...)
	LogBlock(blk)
	for i, x := range xs {
		want := math.Log(x)
		if got := logValue(x); !same(got, want) {
			t.Fatalf("logValue(%v) = %v, math.Log = %v", x, got, want)
		}
		if !same(blk[i], want) {
			t.Fatalf("LogBlock lane %d: Log(%v) = %v, math.Log = %v", i%4, x, blk[i], want)
		}
	}
}

// TestProbeMatchesHost pins that the host's math package was matched:
// on amd64 the port must reproduce math.Log, otherwise every call would
// silently take the fallback.
func TestProbeMatchesHost(t *testing.T) {
	t.Logf("GOARCH %s, port %v", runtime.GOARCH, usePort)
	if runtime.GOARCH == "amd64" && !usePort {
		t.Fatal("the log port does not match this amd64 host's math.Log")
	}
}

// TestProbeVariants forces each of the probe's outcomes.
func TestProbeVariants(t *testing.T) {
	off := func(x float64) float64 { return math.Nextafter(logPort(x), 0) }
	for _, tc := range []struct {
		name string
		arch string
		log  func(float64) float64
		want bool
	}{
		{"port", "amd64", logPort, true},
		{"log differs", "amd64", off, false},
		{"other arch", "arm64", logPort, false},
	} {
		if got := probe(tc.arch, tc.log); got != tc.want {
			t.Errorf("%s: probe = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLogLattice covers every value rng.U32ToFloatOpen can produce.
func TestLogLattice(t *testing.T) {
	xs := make([]float64, 1<<12)
	for w := 0; w < 1<<24; w += len(xs) {
		for i := range xs {
			xs[i] = float64(rng.U32ToFloatOpen(uint32(w+i) << 8))
		}
		checkLog(t, xs)
	}
}

// TestLogNormalFloat64 covers seeded positive normal inputs over the
// whole exponent range.
func TestLogNormalFloat64(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<12)
	for n := 0; n < 10_000_000; n += len(xs) {
		for i := range xs {
			exp := 1 + uint64(r.Intn(0x7FE))
			xs[i] = math.Float64frombits(exp<<52 | r.Uint64()&(1<<52-1))
		}
		checkLog(t, xs)
	}
}

// TestLogFloat32 covers float32 inputs in (0,1), the polar method's s,
// at a stride over their bit patterns.
func TestLogFloat32(t *testing.T) {
	xs := make([]float64, 0, 1<<12)
	for b := uint32(1); b < math.Float32bits(1); b += 61 {
		xs = append(xs, float64(math.Float32frombits(b)))
		if len(xs) == cap(xs) {
			checkLog(t, xs)
			xs = xs[:0]
		}
	}
	checkLog(t, xs)
}

// TestEdges covers the fallback boundaries and special values, each at
// every lane position of a block, and the log reduction's f1 = √2/2
// boundary at every exponent.
func TestEdges(t *testing.T) {
	var halfSqrt2 []float64
	for k := -1022; k <= 1024; k++ {
		halfSqrt2 = append(halfSqrt2, math.Ldexp(math.Sqrt2/2, k))
	}
	checkLog(t, halfSqrt2)
	inf, nan := math.Inf(1), math.NaN()
	edges := []float64{0, math.Copysign(0, -1), -1, -inf, inf, nan, 5e-324, 0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64, 1}
	for _, e := range edges {
		for n := 0; n <= 9; n++ {
			for pos := 0; pos < n; pos++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = 0.5
				}
				xs[pos] = e
				checkLog(t, xs)
			}
		}
	}
}
