package mt

import (
	"math"
	"testing"
	"testing/quick"
)

// blockMT is an independent, deliberately naive block-regeneration
// implementation of the same parameterization, used as a cross-check
// oracle for the one-word-at-a-time Core.
type blockMT struct {
	p     Params
	state []uint32
	idx   int
	lower uint32
	upper uint32
}

func newBlockMT(p Params, seed uint32) *blockMT {
	b := &blockMT{p: p, state: make([]uint32, p.N), idx: p.N}
	b.lower = (uint32(1) << p.R) - 1
	b.upper = ^b.lower
	b.state[0] = seed
	for i := 1; i < p.N; i++ {
		b.state[i] = p.InitF*(b.state[i-1]^(b.state[i-1]>>30)) + uint32(i)
	}
	return b
}

func (b *blockMT) uint32() uint32 {
	n, m := b.p.N, b.p.M
	if b.idx >= n {
		for i := 0; i < n; i++ {
			y := (b.state[i] & b.upper) | (b.state[(i+1)%n] & b.lower)
			x := b.state[(i+m)%n] ^ (y >> 1)
			if y&1 != 0 {
				x ^= b.p.A
			}
			b.state[i] = x
		}
		b.idx = 0
	}
	x := b.state[b.idx]
	b.idx++
	x ^= x >> b.p.TemperU
	x ^= (x << b.p.TemperS) & b.p.TemperB
	x ^= (x << b.p.TemperT) & b.p.TemperC
	x ^= x >> b.p.TemperL
	return x
}

// TestMT19937KnownVector checks the canonical test vector: init_genrand(5489)
// must produce 3499211612 first (Matsumoto & Nishimura reference output).
func TestMT19937KnownVector(t *testing.T) {
	c := NewMT19937(1)
	c.SeedRef(5489)
	want := []uint32{3499211612, 581869302, 3890346734, 3586334585, 545404204}
	for i, w := range want {
		if got := c.Uint32(); got != w {
			t.Fatalf("output %d: got %d, want %d", i, got, w)
		}
	}
}

// TestCoreMatchesBlockOracle cross-checks the incremental Core against the
// block-regeneration oracle over several state wrap-arounds, for both
// parameter sets.
func TestCoreMatchesBlockOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
	}{{"MT19937", MT19937Params}, {"MT521", MT521Params}} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.p, 1)
			c.SeedRef(4357)
			b := newBlockMT(tc.p, 4357)
			for i := 0; i < 5*tc.p.N+13; i++ {
				got, want := c.Uint32(), b.uint32()
				if got != want {
					t.Fatalf("word %d: incremental %d != block %d", i, got, want)
				}
			}
		})
	}
}

// TestPeekIsIdempotent verifies that Peek never consumes state and that
// Peek followed by Uint32 observe the same word.
func TestPeekIsIdempotent(t *testing.T) {
	c := New(MT521Params, 99)
	for i := 0; i < 100; i++ {
		p1, p2 := c.Peek(), c.Peek()
		if p1 != p2 {
			t.Fatalf("iteration %d: Peek not idempotent: %d vs %d", i, p1, p2)
		}
		if got := c.Uint32(); got != p1 {
			t.Fatalf("iteration %d: Uint32 %d != Peek %d", i, got, p1)
		}
	}
}

// TestGatedNextSemantics verifies Listing 3 semantics: with enable=false
// the same word is observed repeatedly; with enable=true the stream
// advances; and the gated stream, filtered to enabled cycles, equals the
// plain stream.
func TestGatedNextSemantics(t *testing.T) {
	c := NewMT19937(7)
	ref := c.Clone()

	// Disabled cycles must not consume.
	v0 := c.Next(false)
	for i := 0; i < 5; i++ {
		if v := c.Next(false); v != v0 {
			t.Fatalf("disabled cycle %d advanced the stream: %d != %d", i, v, v0)
		}
	}
	// An enabled cycle returns the same word one final time, then moves on.
	if v := c.Next(true); v != v0 {
		t.Fatalf("enabled cycle returned %d, want current word %d", v, v0)
	}
	if v := c.Next(false); v == v0 {
		t.Fatalf("stream did not advance after enabled cycle")
	}

	// Interleave a pseudo-random enable pattern; consumed words must match
	// the reference stream exactly (no word skipped, none duplicated).
	c = ref
	pattern := New(MT521Params, 3)
	plain := c.Clone()
	consumed := 0
	for consumed < 1000 {
		enable := pattern.Uint32()&1 == 1
		v := c.Next(enable)
		if enable {
			if want := plain.Uint32(); v != want {
				t.Fatalf("consumed word %d: got %d, want %d", consumed, v, want)
			}
			consumed++
		}
	}
}

// TestSeedDecorrelation ensures nearby 64-bit seeds do not produce
// correlated prefixes (the discard block in Seed is doing its job).
func TestSeedDecorrelation(t *testing.T) {
	a := New(MT521Params, 1)
	b := New(MT521Params, 2)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collide on %d/%d words", same, n)
	}
}

// TestSeedZeroIsUsable guards the all-zero-state degenerate case.
func TestSeedZeroIsUsable(t *testing.T) {
	c := New(MT521Params, 0)
	nonzero := false
	for i := 0; i < 100; i++ {
		if c.Uint32() != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("seed 0 produced a stuck-at-zero stream")
	}
}

// TestCloneIndependence verifies Clone produces an equal but detached copy.
func TestCloneIndependence(t *testing.T) {
	a := NewMT19937(42)
	for i := 0; i < 700; i++ { // cross a state boundary
		a.Uint32()
	}
	b := a.Clone()
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint32(), b.Uint32(); av != bv {
			t.Fatalf("clone diverged at word %d: %d vs %d", i, av, bv)
		}
	}
	// Advancing a must not affect b.
	bp := b.Peek()
	a.Uint32()
	if b.Peek() != bp {
		t.Fatal("advancing original mutated the clone")
	}
}

// TestEquidistribution applies a chi-square uniformity test over 256 bins
// to both generators. With 2^20 samples the statistic should stay within a
// generous band around its expectation (df=255).
func TestEquidistribution(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *Core
	}{{"MT19937", NewMT19937(2026)}, {"MT521", New(MT521Params, 2026)}} {
		t.Run(tc.name, func(t *testing.T) {
			const bins = 256
			const n = 1 << 20
			var counts [bins]int
			for i := 0; i < n; i++ {
				counts[tc.c.Uint32()>>24]++
			}
			expect := float64(n) / bins
			chi2 := 0.0
			for _, cnt := range counts {
				d := float64(cnt) - expect
				chi2 += d * d / expect
			}
			// df=255: mean 255, sd ~22.6; allow ±5 sd.
			if chi2 < 255-5*22.6 || chi2 > 255+5*22.6 {
				t.Fatalf("chi-square %f outside plausible band for uniform output", chi2)
			}
		})
	}
}

// TestBitBalance checks every output bit position is set close to half the
// time for the small twister (the one with unverified DC parameters).
func TestBitBalance(t *testing.T) {
	c := New(MT521Params, 77)
	const n = 1 << 18
	var ones [32]int
	for i := 0; i < n; i++ {
		v := c.Uint32()
		for b := 0; b < 32; b++ {
			ones[b] += int((v >> uint(b)) & 1)
		}
	}
	for b := 0; b < 32; b++ {
		frac := float64(ones[b]) / n
		if math.Abs(frac-0.5) > 0.01 {
			t.Fatalf("bit %d set fraction %f deviates from 0.5", b, frac)
		}
	}
}

// TestSerialCorrelation measures lag-1 correlation of the uniform floats;
// it should be negligible for both generators.
func TestSerialCorrelation(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *Core
	}{{"MT19937", NewMT19937(5)}, {"MT521", New(MT521Params, 5)}} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 1 << 18
			prev := float64(tc.c.Uint32()) / (1 << 32)
			var sx, sy, sxx, syy, sxy float64
			for i := 0; i < n; i++ {
				cur := float64(tc.c.Uint32()) / (1 << 32)
				sx += prev
				sy += cur
				sxx += prev * prev
				syy += cur * cur
				sxy += prev * cur
				prev = cur
			}
			nf := float64(n)
			cov := sxy/nf - (sx/nf)*(sy/nf)
			vx := sxx/nf - (sx/nf)*(sx/nf)
			vy := syy/nf - (sy/nf)*(sy/nf)
			r := cov / math.Sqrt(vx*vy)
			if math.Abs(r) > 0.01 {
				t.Fatalf("lag-1 serial correlation %f too large", r)
			}
		})
	}
}

// TestPropertyGatedEqualsPlain is a property-based test: for any enable
// bit-pattern, the subsequence of words consumed through the gate equals
// the plain stream.
func TestPropertyGatedEqualsPlain(t *testing.T) {
	f := func(seed uint64, pattern []bool) bool {
		if len(pattern) > 4096 {
			pattern = pattern[:4096]
		}
		g := New(MT521Params, seed)
		p := New(MT521Params, seed)
		for _, enable := range pattern {
			v := g.Next(enable)
			if enable {
				if v != p.Uint32() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySeedDeterminism: equal seeds give equal streams.
func TestPropertySeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewMT19937(seed), NewMT19937(seed)
		for i := 0; i < 64; i++ {
			if a.Uint32() != b.Uint32() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMT19937(b *testing.B) {
	c := NewMT19937(1)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += c.Uint32()
	}
	_ = sink
}

func BenchmarkMT521(b *testing.B) {
	c := New(MT521Params, 1)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += c.Uint32()
	}
	_ = sink
}

func BenchmarkGatedNext(b *testing.B) {
	c := NewMT19937(1)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += c.Next(i&3 != 0)
	}
	_ = sink
}

// SeedRef initializes the state exactly like init_genrand of the 2002
// reference implementation (32-bit seed, no decorrelation discard), so
// that outputs can be compared against published MT19937 test vectors.
func (c *Core) SeedRef(s uint32) {
	c.state[0] = s
	for i := 1; i < c.p.N; i++ {
		c.state[i] = c.p.InitF*(c.state[i-1]^(c.state[i-1]>>30)) + uint32(i)
	}
	c.idx = 0
	c.haveCached = false
	c.offset = 0
}

// Clone returns an independent deep copy in the same state, so a test
// can replay one stream down two paths.
func (c *Core) Clone() *Core {
	n := &Core{p: c.p, idx: c.idx, upperMask: c.upperMask, lowerMask: c.lowerMask,
		haveCached: c.haveCached, raw: c.raw, cached: c.cached, kernel: c.kernel,
		offset: c.offset}
	n.state = append([]uint32(nil), c.state...)
	return n
}

// JumpPolynomialDegree exposes the live-space dimension (degree of the
// derived minimal polynomial) for diagnostics and tests.
func JumpPolynomialDegree(p Params) int {
	jt := jumpTablesFor(p)
	return jt.dm - 1
}
