package creditrisk

import (
	"fmt"
	"math"
	"testing"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/mt"
)

// knuthPoisson is the oracle for poissonLane: Knuth's multiplication
// method on one-word draws, chunked so large intensities never underflow
// exp(−λ), with the exponential computed for every chunk.
func knuthPoisson(u rng.Source32, lambda float64) (int64, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return 0, fmt.Errorf("creditrisk: invalid Poisson intensity %g", lambda)
	}
	var n int64
	for lambda > 0 {
		step := lambda
		if step > 30 {
			step = 30
		}
		lambda -= step
		limit := math.Exp(-step)
		prod := 1.0
		for {
			prod *= rng.U32ToFloat64Open(u.Uint32())
			if prod <= limit {
				break
			}
			n++
		}
	}
	return n, nil
}

// scriptedWords hands out a scripted prefix, then the words of an
// MT19937 stream, one at a time or a block at a time, and counts the
// words handed out.
type scriptedWords struct {
	prefix []uint32
	tail   *mt.Core
	handed int
}

func newScriptedWords(prefix []uint32, seed uint64) *scriptedWords {
	return &scriptedWords{prefix: prefix, tail: mt.NewMT19937(seed)}
}

func (s *scriptedWords) Uint32() uint32 {
	s.handed++
	if len(s.prefix) > 0 {
		w := s.prefix[0]
		s.prefix = s.prefix[1:]
		return w
	}
	return s.tail.Uint32()
}

func (s *scriptedWords) FillUint32(dst []uint32) {
	for i := range dst {
		dst[i] = s.Uint32()
	}
}

// consumed is the number of words the lane has taken out of its block.
func (l *poissonLane) consumed(handed uint64) uint64 {
	return handed - uint64(laneWords-l.pos)
}

// drawPanics reports whether lane.draw(λ) panics.
func drawPanics(lane *poissonLane, lambda float64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	lane.draw(lambda)
	return false
}

func TestPoissonSampler(t *testing.T) {
	lane := newPoissonLane(mt.NewMT19937(3))
	for _, lambda := range []float64{0.01, 0.5, 3, 80} {
		const n = 60000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			k := lane.draw(lambda)
			sum += float64(k)
			sum2 += float64(k) * float64(k)
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Errorf("λ=%g: mean %g", lambda, mean)
		}
		if math.Abs(variance-lambda)/lambda > 0.08 {
			t.Errorf("λ=%g: variance %g", lambda, variance)
		}
	}
	if k := lane.draw(0); k != 0 {
		t.Fatal("λ=0 must give 0")
	}
	src := mt.NewMT19937(3)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if !drawPanics(lane, bad) {
			t.Errorf("lane: λ=%g should panic", bad)
		}
		if _, err := knuthPoisson(src, bad); err == nil {
			t.Errorf("oracle: λ=%g should fail", bad)
		}
	}
}

// TestPoissonLaneMatchesOracle draws a long mixed-intensity sequence —
// portfolio-sized intensities with the occasional large one — from one
// stream through the lane and through the oracle: every count and the
// final stream position agree, across many block refills.
func TestPoissonLaneMatchesOracle(t *testing.T) {
	for _, p := range []mt.Params{mt.MT19937Params, mt.MT521Params} {
		ref := mt.New(p, 0x5EED)
		core := mt.New(p, 0x5EED)
		lane := newPoissonLane(core)
		lambdas := []float64{0.02, 0.0004, 0.06, 0.3, 0.02, 0.9, 1, 2.5, 0.015, 31}
		for i := 0; i < 200000; i++ {
			lambda := lambdas[i%len(lambdas)] * (1 + float64(i%13)/8)
			want, _ := knuthPoisson(ref, lambda)
			got := lane.draw(lambda)
			if got != want {
				t.Fatalf("N=%d draw %d λ=%g: lane %d, oracle %d", p.N, i, lambda, got, want)
			}
		}
		if got, want := lane.consumed(core.Offset()), ref.Offset(); got != want {
			t.Fatalf("N=%d: lane consumed %d words, oracle %d", p.N, got, want)
		}
	}
}

// uniformCrossing returns the largest word w whose factor scale·U(w),
// computed as the Knuth loop computes it, is ≤ edge (−1 when none is).
func uniformCrossing(scale, edge float64) int64 {
	w := int64(math.Floor(edge/scale*0x1p32 - 0.5))
	w = max(-1, min(w, math.MaxUint32))
	prod := func(w int64) float64 { return scale * rng.U32ToFloat64Open(uint32(w)) }
	for w < math.MaxUint32 && prod(w+1) <= edge {
		w++
	}
	for w >= 0 && prod(w) > edge {
		w--
	}
	return w
}

// TestPoissonLaneMargins drives scripted words onto every decision point
// of the lane's last chunk — the first factor and a second factor's
// product just below, at and just above the bracket's lower and upper
// edges and exp(−step) itself — and checks that the lane and the oracle
// agree on the count and on the words consumed, with the lane's block
// empty (the chunk loop decides) and in hand (the first-word test may
// decide). Wherever the bracket
// cannot decide the scripted product, the exact exponential must have
// run; wherever it decides, its decision must be the oracle's.
func TestPoissonLaneMargins(t *testing.T) {
	for li, lambda := range []float64{1e-300, 0x1p-33, 0.02, 0.5, 1 - 0x1p-53, 1, 30, 30.5, 80} {
		// Earlier chunks (step 30) each end on two zero words.
		var prefix []uint32
		step := lambda
		for step > 30 {
			step -= 30
			prefix = append(prefix, 0, 0)
		}
		limit := math.Exp(-step)
		edges := []float64{limit}
		var lo, hi float64
		if step < 1 {
			lo, hi = knuthBracket(step)
			edges = append(edges, lo, hi)
		}
		undecided := 0
		for _, edge := range edges {
			for factor := 1; factor <= 2; factor++ {
				var lead []uint32
				scale := 1.0
				if factor == 2 {
					// The largest uniform continues the draw whenever any
					// first factor can.
					scale = rng.U32ToFloat64Open(math.MaxUint32)
					if scale <= limit {
						continue
					}
					lead = []uint32{math.MaxUint32}
				}
				c := uniformCrossing(scale, edge)
				for w := c - 1; w <= c+2; w++ {
					if w < 0 || w > math.MaxUint32 {
						continue
					}
					script := append(append(append([]uint32(nil), prefix...), lead...), uint32(w))
					oracleSrc := newScriptedWords(script, uint64(li))
					want, err := knuthPoisson(oracleSrc, lambda)
					if err != nil {
						t.Fatal(err)
					}
					p := scale * rng.U32ToFloat64Open(uint32(w))
					for _, primed := range []bool{false, true} {
						laneSrc := newScriptedWords(script, uint64(li))
						lane := newPoissonLane(laneSrc)
						if primed {
							// A block in hand lets the first-word test
							// before the chunk loop decide.
							lane.refill()
						}
						got := lane.draw(lambda)
						name := fmt.Sprintf("λ=%g edge=%.17g factor %d word %#x primed %v", lambda, edge, factor, w, primed)
						if got != want {
							t.Errorf("%s: lane %d, oracle %d", name, got, want)
						}
						if n, m := lane.consumed(uint64(laneSrc.handed)), uint64(oracleSrc.handed); n != m {
							t.Errorf("%s: lane consumed %d words, oracle %d", name, n, m)
						}
						if step >= 1 {
							if lane.fallbacks != 0 {
								t.Errorf("%s: %d bracket fallbacks in a step ≥ 1 chunk", name, lane.fallbacks)
							}
							continue
						}
						switch {
						case p <= lo && p > limit:
							t.Errorf("%s: product %.17g ≤ lo %.17g but above exp %.17g", name, p, lo, limit)
						case p > hi && p <= limit:
							t.Errorf("%s: product %.17g > hi %.17g but not above exp %.17g", name, p, hi, limit)
						case p > lo && p <= hi:
							undecided++
							if lane.fallbacks == 0 {
								t.Errorf("%s: bracket cannot decide %.17g, but the exact exp never ran", name, p)
							}
						}
					}
				}
			}
		}
		// Wherever a uniform can land inside the bracket, the scripts
		// must have put one there.
		if step < 1 && rng.U32ToFloat64Open(math.MaxUint32) > lo && undecided == 0 {
			t.Errorf("λ=%g: no scripted product fell inside the bracket", lambda)
		}
	}
	// At λ = 2^−33 the largest uniform equals exp(−λ) exactly: only the
	// exact comparison sees that the draw stops.
	if u, e := rng.U32ToFloat64Open(math.MaxUint32), math.Exp(-0x1p-33); u != e {
		t.Fatalf("U(max) = %.17g, exp(−2^−33) = %.17g: the equality case is gone", u, e)
	}
}

// TestKnuthBracketSlack checks knuthBracket's proved slack on a sweep of
// steps in (0, 1): both edges stay at least 2^−41 away from
// math.Exp(−step), half the margin, so an exponential up to 2^−42 off
// could not move a decision.
func TestKnuthBracketSlack(t *testing.T) {
	steps := []float64{1e-300, 0x1p-60, 0x1p-33, 0.02, 0.5, 1 - 0x1p-53}
	src := mt.NewMT19937(7)
	for i := 0; i < 100000; i++ {
		steps = append(steps, rng.U32ToFloat64Open(src.Uint32()))
	}
	for _, step := range steps {
		lo, hi := knuthBracket(step)
		e := math.Exp(-step)
		if !(e-lo >= 0x1p-41 && hi-e >= 0x1p-41) {
			t.Fatalf("step %.17g: bracket [%.17g, %.17g] around exp %.17g leaves less than 2^−41", step, lo, hi, e)
		}
	}
}

// FuzzPoissonLane checks the lane against the oracle on the counts and
// on the stream position for a fuzzed intensity (as float64 bits) drawn
// repeatedly from a fuzzed MT19937 or MT521 stream, across at least two
// block refills.
func FuzzPoissonLane(f *testing.F) {
	f.Fuzz(func(t *testing.T, lambdaBits, seed uint64) {
		lambda := math.Float64frombits(lambdaBits)
		if lambda > 200 {
			return // the oracle's cost grows with λ
		}
		p := mt.MT19937Params
		if seed&1 == 1 {
			p = mt.MT521Params
		}
		ref := mt.New(p, seed)
		core := mt.New(p, seed)
		lane := newPoissonLane(core)
		for i := 0; i < 1000 && ref.Offset() < 2*laneWords; i++ {
			want, err := knuthPoisson(ref, lambda)
			if err != nil {
				if !drawPanics(lane, lambda) {
					t.Fatalf("λ=%g: the oracle fails (%v) but the lane draws", lambda, err)
				}
				return
			}
			got := lane.draw(lambda)
			if got != want {
				t.Fatalf("λ=%g draw %d: lane %d, oracle %d", lambda, i, got, want)
			}
			if got, want := lane.consumed(core.Offset()), ref.Offset(); got != want {
				t.Fatalf("λ=%g draw %d: lane at word %d, oracle at %d", lambda, i, got, want)
			}
		}
	})
}
