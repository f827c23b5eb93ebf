package xmath

import (
	"math"
	"math/rand"
	"testing"

	"github.com/decwi/decwi/internal/rng"
)

// checkLog requires Log to stay within its documented bound of
// math.Log, widened by math.Log's own 1 ulp (2^−52 relative).
func checkLog(t *testing.T, xs []float64) {
	t.Helper()
	for _, x := range xs {
		want := math.Log(x)
		got := Log(x)
		bound := (0x1p-49 + 0x1p-51) * math.Abs(want)
		if !(x < 1 && float64(float32(x)) == x) {
			bound += 0x1p-51
		}
		if !(math.Abs(got-want) <= bound) {
			t.Fatalf("Log(%v) = %v, math.Log = %v: error %g exceeds %g", x, got, want, math.Abs(got-want), bound)
		}
	}
}

// TestLogLattice covers every value rng.U32ToFloatOpen can produce.
// The top words give exactly 1, where only the general bound applies.
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
// subnormal float32s included, at a stride over their bit patterns.
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

// TestEdges covers both sides of every table interval boundary of Log
// in several binades — including 1 itself, where the table switches
// from the relative interval below to the centred ones above — the ends
// of the normal range, and the ends and index boundaries of Exp's
// domain.
func TestEdges(t *testing.T) {
	var below, any []float64
	for _, k := range []int{-1022, -25, -2, -1, 0, 1, 40, 1023} {
		for i := 0; i <= logN; i++ {
			z := 0.6875 + float64(i)*0x1p-8
			if i > logOne+1 {
				z = 1 + float64(i-logOne-1)*0x1p-7
			}
			x := math.Ldexp(z, k)
			if math.IsInf(x, 0) {
				continue
			}
			for _, y := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1))} {
				if y >= 0x1p-1022 && y <= math.MaxFloat64 {
					any = append(any, y)
				}
			}
			for _, y := range []float32{math.Nextafter32(float32(x), 0), float32(x)} {
				if y > 0 && y < 1 {
					below = append(below, float64(y))
				}
			}
		}
	}
	checkLog(t, below)
	checkLog(t, any)
	checkLog(t, []float64{0x1p-1022, math.MaxFloat64, 1, math.Nextafter(1, 2), math.Nextafter(1, 0)})

	var xs []float64
	for n := -65400; n <= 65400; n += 37 {
		c := float64(n) * math.Ln2 / expN
		xs = append(xs, c, c+math.Ln2/(2*expN), c-math.Ln2/(2*expN))
	}
	xs = append(xs, ExpMin, 708, 0, 0x1p-60, -0x1p-60, -17.33*100/4)
	checkExp(t, xs)
}

// checkExp requires Exp to stay within 2^−51 of e^x relative, widened
// by a 2-ulp allowance for math.Exp.
func checkExp(t *testing.T, xs []float64) {
	t.Helper()
	for _, x := range xs {
		if x < ExpMin || x > 708 {
			continue
		}
		want := math.Exp(x)
		if got := Exp(x); !(math.Abs(got-want) <= 0x1p-50*want) {
			t.Fatalf("Exp(%v) = %v, math.Exp = %v: relative error %g", x, got, want, math.Abs(got-want)/want)
		}
	}
}

// TestExpRange covers seeded arguments over Exp's whole domain and,
// more densely, the boost correction's exponents e·ln u ∈ [−100·17.33, 0].
func TestExpRange(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	xs := make([]float64, 1<<12)
	for n := 0; n < 4_000_000; n += len(xs) {
		for i := range xs {
			if i%2 == 0 {
				xs[i] = ExpMin + r.Float64()*(708-ExpMin)
			} else {
				xs[i] = -r.ExpFloat64() * 8
			}
		}
		checkExp(t, xs)
	}
}

// TestRounds32 drives the rounding test onto and around a float32
// midpoint, across the float32 normal range's ends and onto inputs it
// must refuse, and checks every accepted value against float32 rounding
// of its neighbours.
func TestRounds32(t *testing.T) {
	const ulps = 100
	mid := func(f float32) float64 { // midpoint between f and the next float32 up
		return (float64(f) + float64(math.Nextafter32(f, float32(math.Inf(1))))) / 2
	}
	type tc struct {
		y    float64
		want bool
	}
	var cases []tc
	for _, f := range []float32{1, 1.5, 3.0e-38, math.SmallestNonzeroFloat32 * (1 << 23), 1e38, math.Nextafter32(math.MaxFloat32, 0), math.Nextafter32(2, 0)} {
		m := mid(f)
		cases = append(cases,
			tc{m, false},
			tc{math.Float64frombits(math.Float64bits(m) - ulps), false},
			tc{math.Float64frombits(math.Float64bits(m) + ulps), false},
			tc{math.Float64frombits(math.Float64bits(m) - ulps - 1), true},
			tc{math.Float64frombits(math.Float64bits(m) + ulps + 1), true},
			tc{float64(f), true},
		)
	}
	cases = append(cases,
		tc{0, false}, tc{math.Copysign(0, -1), false}, tc{-1, false},
		tc{math.Inf(1), false}, tc{math.NaN(), false},
		tc{0x1p-126, true}, tc{math.Nextafter(0x1p-126, 0), false},
		tc{0x1p128, false}, tc{math.Nextafter(0x1p128, 0), true},
	)
	for _, c := range cases {
		got := Rounds32(c.y, ulps)
		if got != c.want {
			t.Errorf("Rounds32(%v, %d) = %v, want %v", c.y, ulps, got, c.want)
		}
		if !got {
			continue
		}
		lo := math.Float64frombits(math.Float64bits(c.y) - ulps)
		hi := math.Float64frombits(math.Float64bits(c.y) + ulps)
		if float32(lo) != float32(c.y) || float32(hi) != float32(c.y) {
			t.Errorf("Rounds32(%v) accepted, but its ±%d ulp neighbours round to %v and %v, not %v", c.y, ulps, float32(lo), float32(hi), float32(c.y))
		}
	}
}
