package gamma

import (
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
)

var blockTransforms = []normal.Kind{
	normal.MarsagliaBray, normal.ICDFFPGA, normal.ICDFCUDA, normal.Ziggurat,
}

// TestCycleBlockMatchesCycleStep proves the block compute path's core
// contract: for every transform, a CycleBlock of n attempts produces the
// bitwise-identical valid outputs, in order, as n CycleStep calls on a
// clone-seeded generator, and leaves the cycle/valid/accept counters in
// the identical state.
func TestCycleBlockMatchesCycleStep(t *testing.T) {
	const attempts = 700 // spans several MT521 blocks and a partial MT19937 one
	for _, tr := range blockTransforms {
		t.Run(tr.String(), func(t *testing.T) {
			p := MustFromVariance(1.39)
			blk := NewGenerator(tr, mt.MT521Params, p, 4242)
			ref := NewGenerator(tr, mt.MT521Params, p, 4242)

			s := NewBlockScratch(attempts)
			dst := make([]float32, attempts)
			produced := blk.CycleBlock(dst, attempts, s)

			var want []float32
			for i := 0; i < attempts; i++ {
				if r := ref.CycleStep(); r.Valid {
					want = append(want, r.Gamma)
				}
			}
			if produced != len(want) {
				t.Fatalf("block produced %d values, scalar produced %d", produced, len(want))
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("value %d: block %v != scalar %v", i, dst[i], want[i])
				}
			}
			if blk.Cycles() != ref.Cycles() || blk.NormalValid() != ref.NormalValid() || blk.Accepted() != ref.Accepted() {
				t.Fatalf("counter mismatch: block (%d,%d,%d) scalar (%d,%d,%d)",
					blk.Cycles(), blk.NormalValid(), blk.Accepted(),
					ref.Cycles(), ref.NormalValid(), ref.Accepted())
			}
		})
	}
}

// TestCycleBlockInterleavesWithCycleStep verifies the two disciplines
// compose: alternating block and one-word phases (including parameter
// swaps, as SECLOOP does between sectors) must reproduce the pure
// one-word stream exactly.
func TestCycleBlockInterleavesWithCycleStep(t *testing.T) {
	for _, tr := range blockTransforms {
		t.Run(tr.String(), func(t *testing.T) {
			blk := NewGenerator(tr, mt.MT19937Params, MustFromVariance(0.8), 99)
			ref := NewGenerator(tr, mt.MT19937Params, MustFromVariance(0.8), 99)
			s := NewBlockScratch(256)
			dst := make([]float32, 256)

			var got, want []float32
			phases := []int{37, 256, 1, 100, 5, 256}
			for pi, n := range phases {
				if pi == 3 { // mid-run sector swap
					p2 := MustFromVariance(2.5)
					blk.SetParams(p2)
					ref.SetParams(p2)
				}
				if pi%2 == 0 { // block phase
					m := blk.CycleBlock(dst, n, s)
					got = append(got, dst[:m]...)
				} else { // one-word phase
					for i := 0; i < n; i++ {
						if r := blk.CycleStep(); r.Valid {
							got = append(got, r.Gamma)
						}
					}
				}
				for i := 0; i < n; i++ {
					if r := ref.CycleStep(); r.Valid {
						want = append(want, r.Gamma)
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("interleaved run produced %d values, scalar %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("value %d: interleaved %v != scalar %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestCycleBlockAlphaFlagPath exercises both sides of the α≤1 boost
// correction through the block path (variance < 1 means α > 1, no
// correction; variance > 1 means α < 1, Pow applies).
func TestCycleBlockAlphaFlagPath(t *testing.T) {
	for _, v := range []float64{0.25, 4.0} {
		p := MustFromVariance(v)
		blk := NewGenerator(normal.ICDFFPGA, mt.MT19937Params, p, 5)
		ref := NewGenerator(normal.ICDFFPGA, mt.MT19937Params, p, 5)
		s := NewBlockScratch(512)
		dst := make([]float32, 512)
		m := blk.CycleBlock(dst, 512, s)
		var want []float32
		for i := 0; i < 512; i++ {
			if r := ref.CycleStep(); r.Valid {
				want = append(want, r.Gamma)
			}
		}
		if m != len(want) {
			t.Fatalf("v=%g: block %d values, scalar %d", v, m, len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("v=%g value %d: %v != %v", v, i, dst[i], want[i])
			}
		}
	}
}

// TestSteadyStateBlockZeroAllocs gates the ISSUE's allocation invariant:
// the steady-state block loop — fills, transform, rejection, correction —
// must not allocate at all.
func TestSteadyStateBlockZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	for _, tr := range blockTransforms {
		g := NewGenerator(tr, mt.MT19937Params, MustFromVariance(1.39), 11)
		s := NewBlockScratch(256)
		dst := make([]float32, 256)
		g.CycleBlock(dst, 256, s) // warm lazy tables
		if avg := testing.AllocsPerRun(30, func() { g.CycleBlock(dst, 256, s) }); avg != 0 {
			t.Fatalf("%v: CycleBlock allocates %v times per call, want 0", tr, avg)
		}
		// With the trip histogram attached, the block-local batch and its
		// one flush per block must not allocate either.
		g.InstrumentTrips(telemetry.New(8).Histogram("trips", "trips", "alloc gate"))
		if avg := testing.AllocsPerRun(30, func() { g.CycleBlock(dst, 256, s) }); avg != 0 {
			t.Fatalf("%v: instrumented CycleBlock allocates %v times per call, want 0", tr, avg)
		}
	}
}

func BenchmarkCycleBlock(b *testing.B) {
	for _, tr := range blockTransforms {
		b.Run(tr.String(), func(b *testing.B) {
			g := NewGenerator(tr, mt.MT19937Params, MustFromVariance(1.39), 1)
			s := NewBlockScratch(256)
			dst := make([]float32, 256)
			b.SetBytes(4 * 256) // attempted values per call
			for i := 0; i < b.N; i++ {
				g.CycleBlock(dst, 256, s)
			}
		})
	}
}

func BenchmarkCycleStepLoop(b *testing.B) {
	for _, tr := range blockTransforms {
		b.Run(tr.String(), func(b *testing.B) {
			g := NewGenerator(tr, mt.MT19937Params, MustFromVariance(1.39), 1)
			b.SetBytes(4 * 256)
			for i := 0; i < b.N; i++ {
				for k := 0; k < 256; k++ {
					g.CycleStep()
				}
			}
		})
	}
}
