package normal

import (
	"math"
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
)

// drawWords pulls n words from a shared MT19937 stream so the batch and
// scalar paths see identical inputs.
func drawWords(src *mt.Core, n int) []uint32 {
	w := make([]uint32, n)
	src.FillUint32(w)
	return w
}

// TestFillNormalMatchesScalar cross-checks every batch kernel against
// its scalar per-cycle step: valid slots must be bitwise-identical, the
// validity flags must agree, and the returned count must equal the
// number of true flags.
func TestFillNormalMatchesScalar(t *testing.T) {
	const n = 4096
	for _, k := range []Kind{MarsagliaBray, ICDFFPGA, ICDFCUDA, Ziggurat} {
		t.Run(k.String(), func(t *testing.T) {
			src := mt.NewMT19937(42)
			w1 := drawWords(src, n)
			var w2 []uint32
			switch k {
			case MarsagliaBray:
				w2 = drawWords(src, n)
			case Ziggurat:
				w2 = drawWords(src, 2*n)
			}
			dst := make([]float32, n)
			ok := make([]bool, n)
			valid := FillNormal(k, dst, ok, w1, w2)

			count := 0
			for i := 0; i < n; i++ {
				var z float32
				var zok bool
				switch k {
				case MarsagliaBray:
					z, zok = PolarStep(w1[i], w2[i])
				case ICDFFPGA:
					z, zok = ICDFFPGAStep(w1[i])
				case ICDFCUDA:
					z, zok = ICDFCUDAStep(w1[i])
				case Ziggurat:
					z, zok = ZigguratStep(w1[i], w2[2*i], w2[2*i+1])
				}
				if ok[i] != zok {
					t.Fatalf("slot %d: batch ok=%v, scalar ok=%v", i, ok[i], zok)
				}
				if zok {
					count++
					if dst[i] != z {
						t.Fatalf("slot %d: batch %v != scalar %v", i, dst[i], z)
					}
				}
			}
			if valid != count {
				t.Fatalf("FillNormal returned %d valid, flags say %d", valid, count)
			}
			if k.Rejecting() && (valid == 0 || valid == n) {
				t.Fatalf("rejecting kind %v produced degenerate accept count %d/%d", k, valid, n)
			}
		})
	}
}

// TestFillNormalZeroAlloc gates the no-allocation contract of the batch
// kernels in their steady state.
func TestFillNormalZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	const n = 1024
	src := mt.NewMT19937(7)
	w1 := drawWords(src, n)
	w2 := drawWords(src, 2*n)
	dst := make([]float32, n)
	ok := make([]bool, n)
	for _, k := range []Kind{MarsagliaBray, ICDFFPGA, ICDFCUDA, Ziggurat} {
		FillNormal(k, dst, ok, w1, w2) // warm lazy tables outside the measured runs
		if avg := testing.AllocsPerRun(20, func() { FillNormal(k, dst, ok, w1, w2) }); avg != 0 {
			t.Fatalf("%v batch kernel allocates %v times per call, want 0", k, avg)
		}
	}
}

func BenchmarkFillNormal(b *testing.B) {
	const n = 4096
	src := mt.NewMT19937(3)
	w1 := drawWords(src, n)
	w2 := drawWords(src, 2*n)
	dst := make([]float32, n)
	ok := make([]bool, n)
	for _, k := range []Kind{MarsagliaBray, ICDFFPGA, ICDFCUDA, Ziggurat} {
		b.Run(k.String(), func(b *testing.B) {
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				FillNormal(k, dst, ok, w1, w2)
			}
		})
	}
}

// TestPolarRadii sweeps every float32 s in [0.5, 1) and the lower
// binades, down to the smallest subnormal, at a stride, through radii
// in chunks of PolarFill's size, and requires PolarStep's radius bit
// for bit. Under -race the top binade is strided too.
func TestPolarRadii(t *testing.T) {
	const chunk = 64
	var s, l [chunk]float64
	var f [chunk]float32
	top := uint32(1)
	if raceEnabled {
		top = 61
	}
	half := math.Float32bits(0.5)
	n, fallbacks, total := 0, 0, 0
	flush := func() {
		fallbacks += radii(f[:n], l[:n], s[:n])
		for j, x := range s[:n] {
			if want := radius(x); math.Float32bits(f[j]) != math.Float32bits(want) {
				t.Fatalf("s=%v: radii %v, PolarStep's radius %v", x, f[j], want)
			}
		}
		total += n
		n = 0
	}
	for b := uint32(1); b < math.Float32bits(1); {
		s[n] = float64(math.Float32frombits(b))
		if n++; n == chunk {
			flush()
		}
		if b >= half {
			b += top
		} else {
			b += 997
		}
	}
	flush()
	t.Logf("%d of %d radii fell back", fallbacks, total)

	// s whose radius lies within radiusMargin of a float32 midpoint,
	// found by a scan of every float32 below 1: radii must leave each to
	// radius.
	fallbacks = 0
	for _, b := range []uint32{0x3eac0e, 0x60c6f8, 0x3b6fad6c, 0x3c121860, 0x3cd5ba6a, 0x3d191aa0} {
		s[n] = float64(math.Float32frombits(b))
		n++
	}
	want := n
	flush()
	if fallbacks != want {
		t.Fatalf("%d of %d midpoint radii fell back", fallbacks, want)
	}
}

// BenchmarkPolarFill times the polar transform over 4096 word pairs,
// per attempt.
func BenchmarkPolarFill(b *testing.B) {
	const n = 4096
	src := mt.NewMT19937(3)
	w1 := drawWords(src, n)
	w2 := drawWords(src, n)
	dst := make([]float32, n)
	ok := make([]bool, n)
	for i := 0; i < b.N; i++ {
		PolarFill(dst, ok, w1, w2)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/attempt")
}
