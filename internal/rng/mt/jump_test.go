package mt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func statesEqual(a, b *Core) bool {
	if a.idx != b.idx || a.offset != b.offset {
		return false
	}
	for i := range a.state {
		if a.state[i] != b.state[i] {
			return false
		}
	}
	return true
}

var jumpParamSets = []struct {
	name string
	p    Params
}{
	{"MT19937", MT19937Params},
	{"MT521", MT521Params},
}

// TestJumpMatchesAdvance is the tentpole invariant: Jump(n) lands
// bitwise on the state n sequential Advance calls produce — array
// contents, index, offset counter and the subsequent output stream.
func TestJumpMatchesAdvance(t *testing.T) {
	for _, ps := range jumpParamSets {
		ps := ps
		t.Run(ps.name, func(t *testing.T) {
			// Spans both the sequential small-jump path (n <= 4N) and the
			// polynomial path, including n around multiples of N and the
			// 10^6 upper bound demanded by the issue.
			ns := []uint64{1, 2, uint64(ps.p.N) - 1, uint64(ps.p.N), uint64(ps.p.N) + 1,
				uint64(4*ps.p.N) + 1, 4099, 65537, 1000000}
			for _, n := range ns {
				jumped := New(ps.p, 42)
				stepped := jumped.Clone()
				jumped.Jump(n)
				for i := uint64(0); i < n; i++ {
					stepped.Advance()
				}
				if !statesEqual(jumped, stepped) {
					t.Fatalf("%s: Jump(%d) state differs from %d Advance calls (idx %d vs %d, offset %d vs %d)",
						ps.name, n, n, jumped.idx, stepped.idx, jumped.offset, stepped.offset)
				}
				for i := 0; i < 64; i++ {
					if a, b := jumped.Uint32(), stepped.Uint32(); a != b {
						t.Fatalf("%s: output word %d after Jump(%d) = %#x, after stepping = %#x", ps.name, i, n, a, b)
					}
				}
			}
		})
	}
}

// TestJumpAdditive checks the group property Jump(a+b) == Jump(a);Jump(b)
// with testing/quick, interleaving Peek-cache and gated reads between the
// two partial jumps to prove the cache never perturbs the walk.
func TestJumpAdditive(t *testing.T) {
	for _, ps := range jumpParamSets {
		ps := ps
		t.Run(ps.name, func(t *testing.T) {
			f := func(seed uint64, a32, b32 uint32) bool {
				a, b := uint64(a32%200000), uint64(b32%200000)
				one := New(ps.p, seed)
				two := one.Clone()
				one.Jump(a + b)
				two.Jump(a)
				two.Peek()          // populate the cache mid-seek
				_ = two.Next(false) // gated re-read must not consume
				two.Jump(b)         // jump must discard the cache like Advance
				return statesEqual(one, two) && one.Uint32() == two.Uint32()
			}
			cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(7))}
			if ps.p.N > 100 {
				cfg.MaxCount = 6 // MT19937 jumps are ~ms each; keep the suite fast
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestJumpInterleavesWithConsumers verifies Jump composes with every
// consumption discipline: FillUint32 blocks, gated Next, Peek caching.
func TestJumpInterleavesWithConsumers(t *testing.T) {
	for _, ps := range jumpParamSets {
		ps := ps
		t.Run(ps.name, func(t *testing.T) {
			forEachKernel(t, func(t *testing.T) {
				jumped := New(ps.p, 1234)
				stepped := jumped.Clone()
				buf1 := make([]uint32, 37)
				buf2 := make([]uint32, 37)

				jumped.FillUint32(buf1)
				stepped.FillUint32(buf2)
				n := uint64(5*ps.p.N + 3)
				jumped.Jump(n)
				for i := uint64(0); i < n; i++ {
					stepped.Advance()
				}
				if got, want := jumped.Next(false), stepped.Next(false); got != want {
					t.Fatalf("gated read after jump: %#x != %#x", got, want)
				}
				jumped.FillUint32(buf1)
				stepped.FillUint32(buf2)
				for i := range buf1 {
					if buf1[i] != buf2[i] {
						t.Fatalf("block word %d after jump: %#x != %#x", i, buf1[i], buf2[i])
					}
				}
				if !statesEqual(jumped, stepped) {
					t.Fatalf("states diverged after interleaved jump")
				}
			})
		})
	}
}

// TestJumpGoldenVectors pins SeedRef-anchored outputs after fixed jumps,
// so a silent regression in the derived jump polynomials cannot pass.
// Golden values were produced by the sequential Advance path (the
// reference recurrence), not by Jump itself.
func TestJumpGoldenVectors(t *testing.T) {
	golden := func(p Params, seedRef uint32, n uint64) [4]uint32 {
		c := New(p, 0)
		c.SeedRef(seedRef)
		for i := uint64(0); i < n; i++ {
			c.Advance()
		}
		return [4]uint32{c.Uint32(), c.Uint32(), c.Uint32(), c.Uint32()}
	}
	for _, ps := range jumpParamSets {
		for _, n := range []uint64{9999, 123456} {
			want := golden(ps.p, 5489, n)
			c := New(ps.p, 0)
			c.SeedRef(5489)
			c.Jump(n)
			got := [4]uint32{c.Uint32(), c.Uint32(), c.Uint32(), c.Uint32()}
			if got != want {
				t.Fatalf("%s: golden vector after Jump(%d) = %08x, want %08x", ps.name, n, got, want)
			}
		}
	}
}

// TestJumpPolynomialDegree pins the live-space dimensions from Table I:
// the Berlekamp–Massey derivation must recover exactly degree 32N−R.
func TestJumpPolynomialDegree(t *testing.T) {
	if got := JumpPolynomialDegree(MT19937Params); got != 19937 {
		t.Fatalf("MT19937 minimal polynomial degree = %d, want 19937", got)
	}
	if got := JumpPolynomialDegree(MT521Params); got != 521 {
		t.Fatalf("MT521 minimal polynomial degree = %d, want 521", got)
	}
}

// TestJumpFarDistance exercises the Jump(10^9)-scale path the issue
// demands complete in milliseconds; correctness is cross-checked against
// a second far jump composed of two halves.
func TestJumpFarDistance(t *testing.T) {
	for _, ps := range jumpParamSets {
		whole := New(ps.p, 99)
		halves := whole.Clone()
		const far = 1_000_000_000
		whole.Jump(far)
		halves.Jump(far / 2)
		halves.Jump(far - far/2)
		if !statesEqual(whole, halves) {
			t.Fatalf("%s: Jump(1e9) != Jump(5e8);Jump(5e8)", ps.name)
		}
		if whole.Offset() != far {
			t.Fatalf("%s: Offset after Jump(1e9) = %d", ps.name, whole.Offset())
		}
	}
}

// TestOffsetCounter verifies the checkpoint counter across every
// consumption path and its reset on reseed.
func TestOffsetCounter(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		c := New(MT521Params, 77)
		if c.Offset() != 0 {
			t.Fatalf("fresh core offset = %d", c.Offset())
		}
		c.Uint32()
		c.Peek() // non-consuming
		_ = c.Next(false)
		c.Advance()
		buf := make([]uint32, 29)
		c.FillUint32(buf) // drains the pending Peek cache word as buf[0]
		if got := c.Offset(); got != 2+29 {
			t.Fatalf("offset after mixed consumption = %d, want 31", got)
		}
		c.Jump(1000)
		if got := c.Offset(); got != 31+1000 {
			t.Fatalf("offset after jump = %d, want 1031", got)
		}
		clone := c.Clone()
		if clone.Offset() != c.Offset() {
			t.Fatalf("clone offset = %d, want %d", clone.Offset(), c.Offset())
		}
		c.Seed(5)
		if c.Offset() != 0 {
			t.Fatalf("offset after reseed = %d", c.Offset())
		}
		c.SeedRef(5489)
		if c.Offset() != 0 {
			t.Fatalf("offset after SeedRef = %d", c.Offset())
		}
	})
}

// TestCheckpointResume round-trips a stream through the (seed, offset)
// pair: a fresh core seeded identically and jumped to Offset() must
// continue the stream bitwise.
func TestCheckpointResume(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, ps := range jumpParamSets {
			orig := New(ps.p, 0xFEEDFACE)
			buf := make([]uint32, 777)
			orig.FillUint32(buf)
			orig.Uint32()

			resumed := New(ps.p, 0xFEEDFACE)
			resumed.Jump(orig.Offset())
			for i := 0; i < 256; i++ {
				if a, b := orig.Uint32(), resumed.Uint32(); a != b {
					t.Fatalf("%s: resumed stream diverges at word %d: %#x != %#x", ps.name, i, a, b)
				}
			}
		}
	})
}

func BenchmarkJumpMT19937_1e9(b *testing.B) {
	c := NewMT19937(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Jump(1_000_000_000)
	}
}

func BenchmarkJumpMT521_1e9(b *testing.B) {
	c := New(MT521Params, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Jump(1_000_000_000)
	}
}

// BenchmarkSequentialAdvanceMT19937 is the baseline Jump replaces: ns/op
// here × 10^9 is the sequential cost of the same seek.
func BenchmarkSequentialAdvanceMT19937(b *testing.B) {
	c := NewMT19937(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Advance()
	}
}
