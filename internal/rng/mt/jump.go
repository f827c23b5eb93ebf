package mt

// jump.go — O(log n) stream seek (Core.Jump) and checkpoint position
// tracking (Core.Offset).
//
// The jump polynomial for a parameter set is derived at first use and
// cached process-wide:
//
//  1. Emit 2·(32N−R)+64 output bits from a Core and run Berlekamp–Massey
//     over them. For a primitive twist recurrence this recovers the
//     minimal polynomial φ(x) of the transition on the live state space
//     (dimension 32N−R: the low R bits of the word at the current index
//     never influence any future output — they were masked away by the
//     twist that produced their neighbors).
//  2. Verify φ against probe sequences from independent seeds and output
//     bit positions; if a probe fails, fold its sequence in and rerun
//     Berlekamp–Massey (the combined sequence's annihilator covers both
//     Krylov subspaces). This guards against a functional that happens
//     to see only a proper factor of the minimal polynomial.
//  3. Use p(x) = x·φ(x) as the jump modulus. The extra factor x makes
//     the jump exact on the *full* 32N-bit representation, dead bits
//     included: one transition step clears the dead subspace (the dead
//     word is overwritten and its low bits are masked out of the twist),
//     so p(A) = A·φ(A) annihilates every state vector, not just live
//     ones — which is what lets Jump promise bitwise equality with n
//     sequential Advance calls.
//
// Jump(n) then computes g(x) = x^n mod p(x) by square-and-multiply and
// evaluates g(A)·v by Horner: each step is one O(1) twist on a circular
// scratch buffer plus an O(N) conditional XOR of the original state.

import (
	"fmt"
	"sync"
)

// Offset reports the number of state words consumed since the last
// (re)seed. Together with the seed it forms an O(log n) checkpoint: a
// stream is restored by seeding a fresh Core identically and calling
// Jump(offset). Jump(n) itself adds n, Advance adds 1, FillUint32 adds
// len(dst), and Seed resets the counter to zero. No binary reads it: it
// is test support for the jump and checkpoint tests here and in
// internal/rng/gamma, and for the Poisson lane's word accounting in
// internal/creditrisk.
func (c *Core) Offset() uint64 { return c.offset }

// smallJumpFactor bounds the regime where stepping sequentially beats
// setting up the polynomial machinery.
const smallJumpFactor = 4

// Jump advances the generator by n state words in O(N²·log n) word
// operations, landing bitwise on the exact state (array contents, index,
// position counter) that n sequential Advance calls would produce. A
// pending Peek cache is discarded, as Advance would.
func (c *Core) Jump(n uint64) {
	if n == 0 {
		return
	}
	N := c.p.N
	if n <= uint64(smallJumpFactor*N) {
		for i := uint64(0); i < n; i++ {
			c.Advance()
		}
		return
	}
	jt := jumpTablesFor(c.p)
	g := jt.xPow(n)

	// v: the current state in abstract stream coordinates, v[j] being the
	// word j positions ahead of the index.
	v := make([]uint32, N)
	for j := 0; j < N; j++ {
		v[j] = c.state[(c.idx+j)%N]
	}
	// w: Horner accumulator as a circular buffer with its own base b; the
	// word at abstract coordinate j lives at w[(b+j)%N].
	w := make([]uint32, N)
	b := 0
	m := c.p.M
	for i := g.degree(); i >= 0; i-- {
		// w = A·w — one in-place twist step. Linearity note: the twist's
		// conditional XOR of the constant A fires only when the combined
		// word is odd, which is itself a linear bit function, so this is
		// the same F2-linear map Advance applies.
		y := (w[b] & c.upperMask) | (w[(b+1)%N] & c.lowerMask)
		x := w[(b+m)%N] ^ (y >> 1)
		if y&1 != 0 {
			x ^= c.p.A
		}
		w[b] = x
		b++
		if b == N {
			b = 0
		}
		if g.bit(i) != 0 {
			// w += v, aligned by abstract coordinate: two contiguous runs.
			h := N - b
			xorWords(w[b:], v[:h])
			xorWords(w[:b], v[h:])
		}
	}
	// Write back: after n steps the physical index has moved by n mod N,
	// and abstract coordinate j of the result sits at (newIdx+j)%N.
	newIdx := (c.idx + int(n%uint64(N))) % N
	for j := 0; j < N; j++ {
		c.state[(newIdx+j)%N] = w[(b+j)%N]
	}
	c.idx = newIdx
	c.haveCached = false
	c.offset += n
}

func xorWords(dst, src []uint32) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

// jumpTables holds the precomputed jump modulus p(x) = x·φ(x) for one
// parameter set, plus a small memo of x^n mod p for repeated jump
// distances (every work-item jumps the same StreamOffset).
type jumpTables struct {
	mod fpoly
	dm  int // degree of mod = deg φ + 1

	mu   sync.Mutex
	memo map[uint64]fpoly
}

const xPowMemoCap = 128

func (jt *jumpTables) xPow(n uint64) fpoly {
	jt.mu.Lock()
	if g, ok := jt.memo[n]; ok {
		jt.mu.Unlock()
		return g
	}
	jt.mu.Unlock()
	g := xPowNMod(n, jt.mod, jt.dm)
	jt.mu.Lock()
	if len(jt.memo) < xPowMemoCap {
		jt.memo[n] = g
	}
	jt.mu.Unlock()
	return g
}

type jumpTablesHolder struct {
	once sync.Once
	jt   *jumpTables
}

var jumpTableCache sync.Map // Params -> *jumpTablesHolder

func jumpTablesFor(p Params) *jumpTables {
	h, _ := jumpTableCache.LoadOrStore(p, &jumpTablesHolder{})
	holder := h.(*jumpTablesHolder)
	holder.once.Do(func() { holder.jt = computeJumpTables(p) })
	return holder.jt
}

// outputBits collects n output bits from a fresh Core: bit t is the
// given bit of the t-th tempered word. Tempering is F2-linear, so each
// bit position is a linear functional of the state and its sequence
// obeys the transition's minimal polynomial.
func outputBits(p Params, seed uint64, bit uint, n int) fpoly {
	c := New(p, seed)
	seq := make(fpoly, polyWords(n))
	for t := 0; t < n; t++ {
		if c.Uint32()>>bit&1 != 0 {
			seq.setBit(t)
		}
	}
	return seq
}

// satisfiesRecurrence checks that φ (degree L) annihilates seq:
// Σ_{i=0..L} φ_i·s_{t+i} = 0 for checks values of t.
func satisfiesRecurrence(phi fpoly, L int, seq fpoly, n, checks int) bool {
	if n-L < checks {
		checks = n - L
	}
	for t := 0; t < checks; t++ {
		var acc uint64
		for i := 0; i <= L; i++ {
			acc ^= phi.bit(i) & seq.bit(t+i)
		}
		if acc != 0 {
			return false
		}
	}
	return true
}

// computeJumpTables derives and verifies the jump modulus for p.
func computeJumpTables(p Params) *jumpTables {
	live := p.N*32 - int(p.R)
	n := 2*live + 64

	type probe struct {
		seed uint64
		bit  uint
	}
	probes := []probe{
		{0x9E3779B97F4A7C15, 0},
		{0xD1B54A32D192ED03, 13},
		{0x2545F4914F6CDD1D, 31},
		{0x0000000000000001, 5},
	}
	seqs := make([]fpoly, len(probes))
	for i, pr := range probes {
		seqs[i] = outputBits(p, pr.seed, pr.bit, n)
	}

	combined := append(fpoly(nil), seqs[0]...)
	for attempt := 0; ; attempt++ {
		conn, L := berlekampMassey(combined, n)
		// Reverse the connection polynomial over length L to get the
		// characteristic-orientation minimal polynomial φ(x) = x^L·C(1/x).
		phi := make(fpoly, polyWords(L))
		for i := 0; i <= L; i++ {
			if conn.bit(L-i) != 0 {
				phi.setBit(i)
			}
		}
		bad := -1
		for i := range seqs {
			if !satisfiesRecurrence(phi, L, seqs[i], n, 256) {
				bad = i
				break
			}
		}
		if bad < 0 {
			// Jump modulus p(x) = x·φ(x): the extra transition step
			// annihilates the dead low-R bits of the current word, making
			// the jump exact on the full 32N-bit state.
			mod := make(fpoly, polyWords(L+1))
			for i := 0; i <= L; i++ {
				if phi.bit(i) != 0 {
					mod.setBit(i + 1)
				}
			}
			return &jumpTables{mod: mod, dm: L + 1, memo: make(map[uint64]fpoly)}
		}
		if attempt >= len(seqs) {
			panic(fmt.Sprintf("mt: cannot determine jump polynomial for params N=%d R=%d (degree %d after %d attempts)",
				p.N, p.R, live, attempt))
		}
		for j := range combined {
			combined[j] ^= seqs[bad][j]
		}
	}
}
