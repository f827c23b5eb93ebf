package creditrisk

import (
	"fmt"
	"math"

	"github.com/decwi/decwi/internal/rng"
)

// poissonChunk is the widest intensity one Knuth product covers: larger
// intensities are drawn as a sum of chunks so exp(−step) never
// underflows.
const poissonChunk = 30

// bracketMargin widens the bracket around exp(−step) (see knuthBracket).
// Uniforms sit on a 2^−32 grid, so a margin of 2^−40 almost never moves
// a product into the bracket that the exact bounds would have decided.
const bracketMargin = 0x1p-40

// laneWords is the size of the lane's word block.
const laneWords = 256

// wordFiller is the block side of a word stream: FillUint32 writes the
// next len(dst) words, bitwise-identical to as many one-word draws
// (mt.Core.FillUint32).
type wordFiller interface {
	FillUint32(dst []uint32)
}

// poissonLane draws Poisson(λ) variates with Knuth's multiplication
// method — multiply uniforms until the product drops to exp(−λ), chunked
// by poissonChunk — consuming exactly the words, and returning exactly
// the counts, of the one-word sampler
//
//	for each chunk step: limit := math.Exp(−step); prod := 1.0
//	    for { prod *= U(src.Uint32()); if prod <= limit { break }; n++ }
//
// with U = rng.U32ToFloat64Open (knuthPoisson in the tests is that
// sampler, kept as the oracle). Two things make it cheaper.
//
// Words come out of a laneWords block refilled by one FillUint32 when
// drained: the producer/consumer hand-off of gamma.Pipe, with the
// Knuth loop as the consumer. The words the last refill fetched past the
// final draw are never observed, so the block changes no output.
//
// A chunk with step < 1 decides prod <= exp(−step) against a bracket
// [lo, hi] instead of the exponential (knuthBracket): prod ≤ lo stops,
// prod > hi multiplies on, and only a product in (lo, hi] computes
// math.Exp(−step) — once per chunk — and compares exactly. At portfolio
// intensities (λ ≈ 0.02) the bracket is about λ²/2 wide and almost every
// draw ends on the first word without an exponential. A chunk with
// step ≥ 1 computes the exponential up front: there 1 − step ≤ 0 sits
// below every product and 1 − step + step²/2 ≥ 1/2 lies far above
// exp(−step), so the bracket would decide almost nothing, and the chunk
// draws about step+1 words per exponential anyway.
type poissonLane struct {
	src       wordFiller
	buf       [laneWords]uint32
	pos       int // next unread word of buf
	fallbacks int // products the bracket could not decide
}

func newPoissonLane(src wordFiller) *poissonLane {
	return &poissonLane{src: src, pos: laneWords}
}

// word returns the next word of the stream.
func (l *poissonLane) word() uint32 {
	if l.pos == laneWords {
		l.refill()
	}
	w := l.buf[l.pos]
	l.pos++
	return w
}

func (l *poissonLane) refill() {
	l.src.FillUint32(l.buf[:])
	l.pos = 0
}

// draw returns one Poisson(λ) variate. λ must be finite and ≥ 0, as
// every intensity of a validated portfolio is; draw panics otherwise.
//
// The common portfolio draw — 0 < λ < 1, one chunk, and a first uniform
// at or below the bracket's lower edge, so no default — is decided on
// the buffered word before the chunk loop is entered; every other draw
// restarts from that same word in chunks.
func (l *poissonLane) draw(lambda float64) int64 {
	if lambda > 0 && lambda < 1 && l.pos < laneWords {
		if lo, _ := knuthBracket(lambda); rng.U32ToFloat64Open(l.buf[l.pos]) <= lo {
			l.pos++
			return 0
		}
	}
	return l.chunks(lambda)
}

// chunks draws one Poisson(λ) variate chunk by chunk.
func (l *poissonLane) chunks(lambda float64) int64 {
	if !(lambda >= 0 && lambda <= math.MaxFloat64) {
		panic(fmt.Sprintf("creditrisk: invalid Poisson intensity %g", lambda))
	}
	var n int64
	for lambda > 0 {
		step := lambda
		if step > poissonChunk {
			step = poissonChunk
		}
		lambda -= step
		var lo, hi, limit float64 // limit 0: not computed yet
		if step < 1 {
			lo, hi = knuthBracket(step)
		} else {
			limit = math.Exp(-step)
			lo, hi = limit, limit
		}
		prod := 1.0
		for {
			prod *= rng.U32ToFloat64Open(l.word())
			if prod <= lo {
				break
			}
			if prod <= hi {
				if limit == 0 {
					l.fallbacks++
					limit = math.Exp(-step)
				}
				if prod <= limit {
					break
				}
			}
			n++
		}
	}
	return n
}

// knuthBracket returns lo < E < hi for E = math.Exp(−step) and
// 0 < step < 1, so that a product p ≤ lo proves p <= E and p > hi
// proves p > E without computing E.
//
// Exact bound: for x in (0, 1) the series of e^−x alternates with
// decreasing terms, so 1 − x < e^−x < 1 − x + x²/2.
//
// Rounding (binary64, round to nearest; every intermediate lies in
// (−1, 2), where half an ulp is at most 2^−53):
//   - fl(1−x) is within 2^−53 of 1 − x (it is exact for x ≥ 1/2);
//   - fl(x·x) and its halving are within 2^−53 of x²/2, or within
//     2^−1075 when x·x underflows;
//   - each of the two additions and the margin subtraction rounds by at
//     most 2^−53.
//
// A fused multiply-add only removes roundings. So lo ≤ 1 − x − m +
// 2·2^−53 and hi ≥ 1 − x + x²/2 + m − 4·2^−53 with m = bracketMargin
// = 2^−40. math.Exp is assumed accurate to 2^−42 absolute (it claims
// less than one ulp, which is at most 2^−53 below 1), so
// lo < e^−x − 2^−40 + 2^−52 < E and hi > e^−x + 2^−40 − 2^−51 > E.
//
// For tiny x, lo = 1 − 2^−40 exceeds every uniform (at most 1 − 2^−33)
// and every draw stops on its first word, as it does against E = 1.
// Close to x = 1, lo < 0 and only hi decides.
func knuthBracket(step float64) (lo, hi float64) {
	a := 1 - step
	return a - bracketMargin, a + step*step/2 + bracketMargin
}
