// Package mt implements the Mersenne-Twister family used by the case
// study: the classic MT19937 (period 2^19937−1, 624 words of state) and a
// small dynamic-creation-style twister MT521 (period 2^521−1, 17 words),
// matching Table I of the paper. Both are exposed through a shared
// generalized-feedback-shift-register core, and both support the paper's
// "adapted" operation mode (Listing 3): the output word is computed on
// every cycle, but the internal state is consumed only when an external
// enable flag allows it.
//
// The generators support two consumption disciplines over the same
// state recurrence:
//
//   - One word at a time (Peek/Advance/Next): the hardware formulation.
//     The design the paper describes produces exactly one tempered word
//     per clock cycle, and the Peek/Advance split needed by the gated
//     mode falls out naturally. The FPGA co-simulation depends on these
//     Listing-3 semantics being cycle-exact.
//   - In bulk (FillUint32): the classic block-MT formulation that
//     regenerates runs of the state array in place and tempers into the
//     caller's buffer. This is the host-side compute path: it produces
//     the bitwise-identical word stream with none of the per-call
//     Peek-cache branching, and interleaves freely with the one-word
//     calls.
package mt

// Params describes a Mersenne-Twister instance in the Matsumoto-Nishimura
// parameterization (w = 32 throughout this package).
type Params struct {
	// N is the degree of recurrence: the number of 32-bit state words.
	N int
	// M is the middle offset of the recurrence, 1 <= M < N.
	M int
	// R is the separation point of one word: the twist combines the
	// upper w-R bits of x[k] with the lower R bits of x[k+1]. The period
	// is 2^(N*32-R) − 1 when the characteristic polynomial is primitive.
	R uint
	// A is the bottom row of the twist matrix (applied when the
	// combined word is odd).
	A uint32
	// Tempering parameters (u, s, b, t, c, l in the original paper).
	TemperU uint
	TemperS uint
	TemperB uint32
	TemperT uint
	TemperC uint32
	TemperL uint
	// InitF is the multiplier of the Knuth-style state initializer.
	InitF uint32
}

// MT19937Params is the canonical parameter set of Matsumoto & Nishimura
// (1998): period 2^19937−1, 623-dimensional equidistribution at 32-bit
// accuracy.
var MT19937Params = Params{
	N: 624, M: 397, R: 31, A: 0x9908B0DF,
	TemperU: 11,
	TemperS: 7, TemperB: 0x9D2C5680,
	TemperT: 15, TemperC: 0xEFC60000,
	TemperL: 18,
	InitF:   1812433253,
}

// MT521Params is a small-period twister in the style of Matsumoto &
// Nishimura's dynamic creation (DC) of Mersenne-Twisters, with N=17 state
// words and period 2^521−1 (R = 17*32 − 521 = 23), matching the
// "Exponent 521 / 17 states" rows of Table I. The twist and tempering
// constants are a representative DC-style assignment (DC searches these
// per stream id); primitivity of the characteristic polynomial cannot be
// re-verified offline, so the test suite instead validates the generator
// empirically (equidistribution, serial correlation, full-period sanity on
// a scaled-down sibling).
var MT521Params = Params{
	N: 17, M: 8, R: 23, A: 0xE4BD75F5,
	TemperU: 12,
	TemperS: 7, TemperB: 0x655E5280,
	TemperT: 15, TemperC: 0xFFD58000,
	TemperL: 18,
	InitF:   1812433253,
}

// Core is a one-word-at-a-time Mersenne-Twister engine. It implements
// rng.Source32. The zero value is not usable; construct with New or
// NewMT19937.
type Core struct {
	p          Params
	state      []uint32
	idx        int
	upperMask  uint32
	lowerMask  uint32
	haveCached bool
	raw        uint32 // twisted state word for the current index (Peek cache)
	cached     uint32 // its tempered output
	// kernel is the FillUint32 kernel chosen for p, fixed by New.
	kernel fillKernel
	// offset counts state words consumed since the last (re)seed; it is
	// what Jump fast-forwards and what checkpoint/resume round-trips
	// (see jump.go).
	offset uint64
}

// New returns a Core with the given parameters, seeded with seed.
func New(p Params, seed uint64) *Core {
	c := &Core{p: p, state: make([]uint32, p.N)}
	c.lowerMask = (uint32(1) << p.R) - 1
	c.upperMask = ^c.lowerMask
	switch p {
	case mt19937:
		c.kernel = kernelMT19937
	case mt521:
		c.kernel = kernelMT521
	}
	c.Seed(seed)
	return c
}

// NewMT19937 returns the classic big twister.
func NewMT19937(seed uint64) *Core { return New(MT19937Params, seed) }

// Seed re-initializes the state with the Knuth-style recurrence used by
// the 2002 reference implementation, folding all 64 seed bits in.
func (c *Core) Seed(seed uint64) {
	s := uint32(seed) ^ uint32(seed>>32)*2654435761
	if s == 0 {
		s = 19650218
	}
	c.state[0] = s
	for i := 1; i < c.p.N; i++ {
		c.state[i] = c.p.InitF*(c.state[i-1]^(c.state[i-1]>>30)) + uint32(i)
	}
	c.idx = 0
	c.haveCached = false
	// Discard one full state block so that closely related seeds
	// decorrelate before the first word is consumed. The words go
	// through the bulk fill into a stack buffer: the state it leaves is
	// the one N Advance calls would.
	var discard [64]uint32
	for left := c.p.N; left > 0; left -= len(discard) {
		c.FillUint32(discard[:min(left, len(discard))])
	}
	// A reseeded core starts a canonical stream at position zero. This
	// keeps pooled generators (core.getGenerator) clean — a Jump on one
	// run can never leak into the next.
	c.offset = 0
}

// twist computes the next state word at the current index without storing
// it. The two taps wrap by compare-and-reset: idx < N and M < N, so
// neither needs a division.
func (c *Core) twist() uint32 {
	n := c.p.N
	next := c.idx + 1
	if next == n {
		next = 0
	}
	tap := c.idx + c.p.M
	if tap >= n {
		tap -= n
	}
	y := (c.state[c.idx] & c.upperMask) | (c.state[next] & c.lowerMask)
	x := c.state[tap] ^ (y >> 1)
	if y&1 != 0 {
		x ^= c.p.A
	}
	return x
}

// temper applies the output tempering transform.
func (c *Core) temper(x uint32) uint32 {
	x ^= x >> c.p.TemperU
	x ^= (x << c.p.TemperS) & c.p.TemperB
	x ^= (x << c.p.TemperT) & c.p.TemperC
	x ^= x >> c.p.TemperL
	return x
}

// Peek returns the tempered word the next Uint32 would produce, without
// consuming state. In the hardware analogy this is the combinational
// output of the twister block, which is valid on every cycle.
func (c *Core) Peek() uint32 {
	if !c.haveCached {
		c.raw = c.twist()
		c.cached = c.temper(c.raw)
		c.haveCached = true
	}
	return c.cached
}

// Advance consumes the current word: it commits the twisted state word
// (the one Peek already computed, if any) and moves the index forward,
// invalidating the Peek cache. This corresponds to the enabled
// state-index increment in Listing 3.
func (c *Core) Advance() {
	if !c.haveCached {
		c.raw = c.twist()
	}
	c.state[c.idx] = c.raw
	c.idx++
	if c.idx == c.p.N {
		c.idx = 0
	}
	c.haveCached = false
	c.offset++
}

// Uint32 consumes and returns the next word (rng.Source32).
func (c *Core) Uint32() uint32 {
	v := c.Peek()
	c.Advance()
	return v
}

// Next is the gated read of Listing 3: it returns the current output
// word and consumes it only when enable is true. A pipelined loop can
// therefore call Next on every iteration — keeping the initiation
// interval at one — while logically stalling the stream during rejected
// iterations.
func (c *Core) Next(enable bool) uint32 {
	v := c.Peek()
	if enable {
		c.Advance()
	}
	return v
}

// mt19937 and mt521 are the Table I parameter sets whose constants
// fillSeg and fill521 are compiled with; package-private copies, so the
// kernel New selects cannot be redirected by writes to the exported
// variables.
var mt19937, mt521 = MT19937Params, MT521Params

// fillKernel names the FillUint32 kernel for a parameter set.
type fillKernel uint8

const (
	kernelOneWord fillKernel = iota // any Params: the one-word Uint32 path
	kernelMT19937
	kernelMT521
)

// FillUint32 writes len(dst) tempered words into dst — the block-MT
// formulation: contiguous runs of the state array are regenerated in
// place and tempered out in tight loops, with the twist's two wrapping
// taps handled by segment bounds instead of per-word modulo arithmetic.
// The kernels are compiled with the Table I constants: MT19937 runs
// fillSeg over any stretch, MT521 runs fill521 over whole state blocks
// and twist521 over the words either side of them, and every other
// Params takes the one-word Uint32 path. New picks the kernel once.
//
// The output is bitwise-identical to len(dst) successive Uint32 calls
// (the incremental recurrence commits exactly the same mixed old/new
// state words a whole-block regeneration does), so Fill and the one-word
// calls interleave freely: a pending Peek cache is drained first, and
// after a Fill the gated Next(enable=false) re-reads the following word
// exactly as it would have on the one-word path. FillUint32 never
// allocates.
func (c *Core) FillUint32(dst []uint32) {
	k := 0
	if len(dst) > 0 && c.haveCached {
		dst[0] = c.Uint32() // the cached word
		k = 1
	}
	switch c.kernel {
	case kernelMT19937:
		c.fillMT19937(dst[k:])
		k = len(dst)
	case kernelMT521:
		c.fillMT521(dst[k:])
		k = len(dst)
	}
	for ; k < len(dst); k++ {
		dst[k] = c.Uint32()
	}
}

// fillMT19937 is FillUint32 for an MT19937 core with no pending Peek
// cache: it walks the state array in segments bounded by the twist's
// wrapping taps.
func (c *Core) fillMT19937(dst []uint32) {
	const n, m = 624, 397
	st := c.state[:n]
	i := c.idx
	for k := 0; k < len(dst); {
		end := min(i+len(dst)-k, n)
		// Segment 1: neither tap wraps (i+1 < n and i+m < n).
		if s1 := min(n-m, end); i < s1 {
			fillSeg(dst[k:k+s1-i], st[i:s1], st[i+1:s1+1], st[i+m:s1+m])
			k += s1 - i
			i = s1
		}
		// Segment 2: the middle tap wraps into this block's fresh words.
		if s2 := min(n-1, end); i < s2 {
			fillSeg(dst[k:k+s2-i], st[i:s2], st[i+1:s2+1], st[i+m-n:s2+m-n])
			k += s2 - i
			i = s2
		}
		// Segment 3: the final word of the block, both taps wrapped.
		if i == n-1 && i < end {
			fillSeg(dst[k:k+1], st[n-1:], st[:1], st[m-1:m])
			k++
			i = 0
		}
	}
	c.idx = i
	c.offset += uint64(len(dst))
}

// fillMT521 is FillUint32 for an MT521 core with no pending Peek cache:
// whole state blocks run through the unrolled block kernel, the words
// before the first block boundary and after the last one word by word.
func (c *Core) fillMT521(dst []uint32) {
	const n, m = 17, 8
	st := c.state[:n]
	i := c.idx
	for k := 0; k < len(dst); {
		if i == 0 && len(dst)-k >= n {
			fill521(dst[k:k+n], st)
			k += n
			continue
		}
		st[i], dst[k] = twist521(st[i], st[(i+1)%n], st[(i+m)%n])
		i = (i + 1) % n
		k++
	}
	c.idx = i
	c.offset += uint64(len(dst))
}

// twist19937 regenerates one MT19937 state word from the word being
// replaced (cur), its successor (nxt) and the middle tap, and returns
// the new word with its tempered output. The twist conditional is
// branch-free (the A row is masked in with -(y&1), a full-width 0/1
// mask — the twist bit is an unpredictable random bit, so a branch here
// mispredicts half the time).
func twist19937(cur, nxt, tap uint32) (x, out uint32) {
	y := (cur & 0x80000000) | (nxt & 0x7FFFFFFF)
	x = tap ^ (y >> 1) ^ (0x9908B0DF & -(y & 1))
	out = x ^ (x >> 11)
	out ^= (out << 7) & 0x9D2C5680
	out ^= (out << 15) & 0xEFC60000
	return x, out ^ (out >> 18)
}

// fillSeg regenerates and tempers one contiguous MT19937 twist segment:
// for each j it twists cur[j] with nxt[j] against tap[j], writes the new
// state word back to cur[j] and emits the tempered word into o[j]. nxt
// is cur shifted by one, and in segment 2 tap aliases state words
// freshly written earlier in the same pass; the strictly increasing
// write order keeps both reads correct, exactly as in the scalar
// formulation. With AVX2 the multiple-of-8 head runs in fillSegAVX2
// (fill_amd64.s), which keeps that order eight lanes at a time. The Go
// loop runs as 8-wide unrolled lanes over len-pinned subslices so the
// compiler eliminates every bounds check (scripts/bce_check.sh); it
// finishes the tail, and is the whole kernel without AVX2.
func fillSeg(o, cur, nxt, tap []uint32) {
	if n := len(o) &^ 7; useAVX2 && n > 0 && len(cur) >= n && len(nxt) >= n && len(tap) >= n {
		fillSegAVX2(&o[0], &cur[0], &nxt[0], &tap[0], n)
		o, cur, nxt, tap = o[n:], cur[n:], nxt[n:], tap[n:]
	}
	// bce:begin fillSeg twist+temper lanes
	// The redundant slice-length terms in the loop condition and the tail
	// guard are what let the prove pass drop every bounds check: each
	// [:8:8] reslice and constant-index access below is then statically
	// in range (verified by scripts/bce_check.sh). All four slices have
	// length n by construction, so neither guard ever alters behavior.
	for len(o) >= 8 && len(cur) >= 8 && len(nxt) >= 8 && len(tap) >= 8 {
		o8 := o[:8:8]
		c8 := cur[:8:8]
		n8 := nxt[:8:8]
		t8 := tap[:8:8]
		c8[0], o8[0] = twist19937(c8[0], n8[0], t8[0])
		c8[1], o8[1] = twist19937(c8[1], n8[1], t8[1])
		c8[2], o8[2] = twist19937(c8[2], n8[2], t8[2])
		c8[3], o8[3] = twist19937(c8[3], n8[3], t8[3])
		c8[4], o8[4] = twist19937(c8[4], n8[4], t8[4])
		c8[5], o8[5] = twist19937(c8[5], n8[5], t8[5])
		c8[6], o8[6] = twist19937(c8[6], n8[6], t8[6])
		c8[7], o8[7] = twist19937(c8[7], n8[7], t8[7])
		o, cur, nxt, tap = o[8:], cur[8:], nxt[8:], tap[8:]
	}
	m := len(o)
	if m > len(cur) || m > len(nxt) || m > len(tap) {
		return
	}
	cur = cur[:m]
	nxt = nxt[:m]
	tap = tap[:m]
	for j := range o {
		cur[j], o[j] = twist19937(cur[j], nxt[j], tap[j])
	}
	// bce:end
}

// twist521 is twist19937 for the MT521 constants.
func twist521(cur, nxt, tap uint32) (x, out uint32) {
	y := (cur & 0xFF800000) | (nxt & 0x007FFFFF)
	x = tap ^ (y >> 1) ^ (0xE4BD75F5 & -(y & 1))
	out = x ^ (x >> 12)
	out ^= (out << 7) & 0x655E5280
	out ^= (out << 15) & 0xFFD58000
	return x, out ^ (out >> 18)
}

// fill521 regenerates and tempers exactly one full MT521 state block:
// N=17 words with M=8, every index a constant so the whole
// twist+temper datapath is branch-free straight-line code with zero
// bounds checks (scripts/bce_check.sh) — the small-state analogue of
// fillSeg. Write order is strictly increasing, so the wrapped taps read
// the fresh words exactly as the recurrence demands. With AVX2, words
// 0–15 run as two 8-lane vectors in fill521AVX2 (fill_amd64.s) and
// word 16 as one twist521 step.
func fill521(o, st []uint32) {
	if len(o) < 17 || len(st) < 17 {
		return
	}
	o = o[:17:17]
	st = st[:17:17]
	if useAVX2 {
		fill521AVX2(&o[0], &st[0])
		st[16], o[16] = twist521(st[16], st[0], st[7])
		return
	}
	// bce:begin fill521 twist+temper block
	st[0], o[0] = twist521(st[0], st[1], st[8])
	st[1], o[1] = twist521(st[1], st[2], st[9])
	st[2], o[2] = twist521(st[2], st[3], st[10])
	st[3], o[3] = twist521(st[3], st[4], st[11])
	st[4], o[4] = twist521(st[4], st[5], st[12])
	st[5], o[5] = twist521(st[5], st[6], st[13])
	st[6], o[6] = twist521(st[6], st[7], st[14])
	st[7], o[7] = twist521(st[7], st[8], st[15])
	st[8], o[8] = twist521(st[8], st[9], st[16])
	st[9], o[9] = twist521(st[9], st[10], st[0])
	st[10], o[10] = twist521(st[10], st[11], st[1])
	st[11], o[11] = twist521(st[11], st[12], st[2])
	st[12], o[12] = twist521(st[12], st[13], st[3])
	st[13], o[13] = twist521(st[13], st[14], st[4])
	st[14], o[14] = twist521(st[14], st[15], st[5])
	st[15], o[15] = twist521(st[15], st[16], st[6])
	st[16], o[16] = twist521(st[16], st[0], st[7])
	// bce:end
}
