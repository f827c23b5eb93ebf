package mt

import (
	"math/bits"
	"testing"

	"github.com/decwi/decwi/internal/rng"
)

// An independent oracle for Jump on MT521: one step of the twister is
// a linear map on the 17-word state over F2, so n steps are the n-th
// power of its 544×544 transition matrix, computed by repeated squaring
// as in "Modular exponentiation of matrices on FPGA-s". The matrix is
// written down from the recurrence's definition — it shares no code
// with Core's twist, the fill kernels, or Jump's Berlekamp–Massey
// polynomial and Horner evaluation.

const (
	oracleBits  = 17 * 32                // state bits: abstract word j, bit b is bit 32j+b
	oracleWords = (oracleBits + 63) / 64 // uint64 words per bit vector
)

type f2Vec [oracleWords]uint64

func (v *f2Vec) flip(i int)     { v[i/64] ^= 1 << (i % 64) }
func (v *f2Vec) get(i int) bool { return v[i/64]>>(i%64)&1 != 0 }

// f2Mat is a square F2 matrix stored as rows: row i lists the input
// bits whose XOR is output bit i.
type f2Mat [oracleBits]f2Vec

// mt521Step is the transition matrix of one step on the abstract state
// (word j is the word j positions ahead of the index). Every word
// shifts down one place, and the new last word is
// x[M] ⊕ (y >> 1) ⊕ (y₀ · A), where y takes its upper 32−R bits from
// x[0] and its lower R bits from x[1].
func mt521Step(p Params) *f2Mat {
	var t f2Mat
	for j := 0; j < p.N-1; j++ {
		for b := 0; b < 32; b++ {
			t[32*j+b].flip(32*(j+1) + b)
		}
	}
	ySrc := func(k int) int { // state bit that supplies bit k of y
		if k >= int(p.R) {
			return k
		}
		return 32 + k
	}
	last := 32 * (p.N - 1)
	for b := 0; b < 32; b++ {
		row := &t[last+b]
		row.flip(32*p.M + b)
		if b < 31 {
			row.flip(ySrc(b + 1))
		}
		if p.A>>b&1 != 0 {
			row.flip(ySrc(0))
		}
	}
	return &t
}

// mul returns a·b.
func (a *f2Mat) mul(b *f2Mat) *f2Mat {
	var c f2Mat
	for i := range a {
		for k := 0; k < oracleBits; k++ {
			if a[i].get(k) {
				for w := range c[i] {
					c[i][w] ^= b[k][w]
				}
			}
		}
	}
	return &c
}

// apply returns a·v.
func (a *f2Mat) apply(v f2Vec) f2Vec {
	var out f2Vec
	for i := range a {
		par := 0
		for w := range v {
			par += bits.OnesCount64(a[i][w] & v[w])
		}
		if par&1 != 0 {
			out.flip(i)
		}
	}
	return out
}

// oracleState reads c's state as an abstract bit vector.
func oracleState(c *Core) f2Vec {
	var v f2Vec
	for j := 0; j < c.p.N; j++ {
		x := c.state[(c.idx+j)%c.p.N]
		for b := 0; b < 32; b++ {
			if x>>b&1 != 0 {
				v.flip(32*j + b)
			}
		}
	}
	return v
}

// oracleWord extracts abstract word j of v.
func oracleWord(v f2Vec, j int) uint32 {
	var x uint32
	for b := 0; b < 32; b++ {
		if v.get(32*j + b) {
			x |= 1 << b
		}
	}
	return x
}

// oracleTemper is the tempering transform as Matsumoto–Nishimura
// define it, from the parameter set.
func oracleTemper(p Params, y uint32) uint32 {
	y ^= y >> p.TemperU
	y ^= y << p.TemperS & p.TemperB
	y ^= y << p.TemperT & p.TemperC
	return y ^ y>>p.TemperL
}

// TestJumpMatrixOracleMT521: Jump(n) lands on T^n·v — the same state
// words and the same next output words — at n = 10⁹, at 1, 2 and 3
// substream strides, and at the distances the stepping tests reach.
func TestJumpMatrixOracleMT521(t *testing.T) {
	p := MT521Params
	step := mt521Step(p)
	// pow[k] = T^(2^k), enough squarings for the largest distance.
	pow := []*f2Mat{step}
	for k := 1; k < 47; k++ {
		pow = append(pow, pow[k-1].mul(pow[k-1]))
	}
	for _, n := range []uint64{1_000_000_000, rng.SubstreamStride, 2 * rng.SubstreamStride,
		3 * rng.SubstreamStride, 9999, 123456} {
		if bits.Len64(n) > len(pow) {
			t.Fatalf("n = %d needs more than %d squarings", n, len(pow))
		}
		c := New(p, 42)
		for i := 0; i < 5; i++ { // start off a block boundary
			c.Advance()
		}
		v := oracleState(c)
		c.Jump(n)
		for k := 0; k < bits.Len64(n); k++ {
			if n>>k&1 != 0 {
				v = pow[k].apply(v)
			}
		}
		for j := 0; j < p.N; j++ {
			if got, want := c.state[(c.idx+j)%p.N], oracleWord(v, j); got != want {
				t.Fatalf("Jump(%d): state word %d = %#08x, oracle %#08x", n, j, got, want)
			}
		}
		for i := 0; i < 2*p.N; i++ {
			v = step.apply(v)
			if got, want := c.Uint32(), oracleTemper(p, oracleWord(v, p.N-1)); got != want {
				t.Fatalf("Jump(%d): next word %d = %#08x, oracle %#08x", n, i, got, want)
			}
		}
	}
}
