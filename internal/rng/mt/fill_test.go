package mt

import (
	"testing"
	"testing/quick"
)

// fillParams are the two Table I parameter sets every fill test covers,
// plus a non-Table-I set that takes FillUint32's one-word fallback.
var fillParams = []struct {
	name string
	p    Params
}{{"MT19937", MT19937Params}, {"MT521", MT521Params}, {"MT19937-TemperU12", mt19937TemperU12()}}

func mt19937TemperU12() Params {
	p := MT19937Params
	p.TemperU = 12
	return p
}

// TestFillUint32MatchesScalar cross-checks the block fill against the
// one-word path over several state wrap-arounds and at chunk sizes that
// straddle every segment boundary of the block regeneration.
func TestFillUint32MatchesScalar(t *testing.T) {
	for _, tc := range fillParams {
		t.Run(tc.name, func(t *testing.T) {
			for _, chunk := range []int{1, 2, 3, tc.p.N - tc.p.M, tc.p.N - 1, tc.p.N, tc.p.N + 1, 3*tc.p.N + 7} {
				blk := New(tc.p, 12345)
				ref := blk.Clone()
				buf := make([]uint32, chunk)
				for total := 0; total < 4*tc.p.N; total += chunk {
					blk.FillUint32(buf)
					for i, got := range buf {
						if want := ref.Uint32(); got != want {
							t.Fatalf("chunk %d, word %d: fill %#x != scalar %#x", chunk, total+i, got, want)
						}
					}
				}
			}
		})
	}
}

// TestFillUint32DrainsPeekCache verifies that a pending Peek cache (a
// computed-but-unconsumed word from the gated path) is emitted as the
// first word of a subsequent fill.
func TestFillUint32DrainsPeekCache(t *testing.T) {
	c := NewMT521(9)
	ref := c.Clone()
	peeked := c.Peek() // populates the cache without consuming
	buf := make([]uint32, 40)
	c.FillUint32(buf)
	if buf[0] != peeked {
		t.Fatalf("fill did not drain the Peek cache: got %#x, peeked %#x", buf[0], peeked)
	}
	for i, got := range buf {
		if want := ref.Uint32(); got != want {
			t.Fatalf("word %d after cached fill: %#x != %#x", i, got, want)
		}
	}
}

// TestGatedReReadAfterFill is the regression required by the block-path
// contract: after a FillUint32, a gated Next(enable=false) must observe
// the next word of the stream and re-read it on every disabled cycle,
// exactly as on the pure one-word path.
func TestGatedReReadAfterFill(t *testing.T) {
	for _, tc := range fillParams {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.p, 77)
			ref := c.Clone()
			buf := make([]uint32, tc.p.N+5)
			c.FillUint32(buf)
			for range buf {
				ref.Uint32()
			}
			want := ref.Peek()
			for i := 0; i < 4; i++ {
				if got := c.Next(false); got != want {
					t.Fatalf("disabled cycle %d after fill: got %#x, want held word %#x", i, got, want)
				}
			}
			// The held word is finally consumed, then the streams stay in
			// lockstep.
			if got := c.Next(true); got != want {
				t.Fatalf("enabled cycle consumed %#x, want %#x", got, want)
			}
			ref.Advance()
			for i := 0; i < 100; i++ {
				if got, w := c.Uint32(), ref.Uint32(); got != w {
					t.Fatalf("word %d after gated re-read: %#x != %#x", i, got, w)
				}
			}
		})
	}
}

// TestPropertyFillInterleaving is the property-based cross-check the
// block path's contract demands: for random seeds and random
// interleavings of Fill and single-word calls, the produced word stream
// equals the pure one-word stream — for both Table I parameter sets.
func TestPropertyFillInterleaving(t *testing.T) {
	for _, tc := range fillParams {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			f := func(seed uint64, ops []uint16) bool {
				if len(ops) > 64 {
					ops = ops[:64]
				}
				blk := New(p, seed)
				ref := New(p, seed)
				buf := make([]uint32, 2*p.N+3)
				for _, op := range ops {
					switch op % 4 {
					case 0: // bulk fill of a random chunk
						chunk := int(op/4)%len(buf) + 1
						blk.FillUint32(buf[:chunk])
						for i := 0; i < chunk; i++ {
							if buf[i] != ref.Uint32() {
								return false
							}
						}
					case 1: // single word
						if blk.Uint32() != ref.Uint32() {
							return false
						}
					case 2: // gated enabled cycle
						if blk.Next(true) != ref.Uint32() {
							return false
						}
					case 3: // gated disabled cycle: must not consume
						if blk.Next(false) != ref.Peek() {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFillUint32ZeroAlloc gates the block fill's no-allocation contract.
func TestFillUint32ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	c := NewMT19937(3)
	buf := make([]uint32, 1024)
	if avg := testing.AllocsPerRun(50, func() { c.FillUint32(buf) }); avg != 0 {
		t.Fatalf("FillUint32 allocates %v times per call, want 0", avg)
	}
}

// TestSeedDiscardMatchesAdvance pins Seed's bulk warm-up discard to
// the one-word formulation: the Knuth initializer followed by N
// Advance calls. Reseeding a core that is mid-stream and mid-Peek must
// land in the same state as a fresh New.
func TestSeedDiscardMatchesAdvance(t *testing.T) {
	for _, tc := range fillParams {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{0, 1, 0x601DE7, 1<<40 + 3} {
				ref := New(tc.p, 0)
				s := uint32(seed) ^ uint32(seed>>32)*2654435761
				if s == 0 {
					s = 19650218
				}
				ref.SeedRef(s)
				for i := 0; i < tc.p.N; i++ {
					ref.Advance()
				}
				ref.offset = 0

				reused := New(tc.p, 99)
				reused.Uint32()
				reused.Peek()
				reused.Seed(seed)
				for name, c := range map[string]*Core{"New": New(tc.p, seed), "reseeded": reused} {
					if c.idx != ref.idx || c.offset != 0 || c.haveCached {
						t.Fatalf("seed %#x, %s: idx %d offset %d cached %v", seed, name, c.idx, c.offset, c.haveCached)
					}
					for i := range ref.state {
						if c.state[i] != ref.state[i] {
							t.Fatalf("seed %#x, %s: state word %d = %#x, want %#x", seed, name, i, c.state[i], ref.state[i])
						}
					}
				}
			}
		})
	}
}

// TestSeedZeroAlloc: the warm-up discard runs through a stack buffer.
func TestSeedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	c := NewMT19937(3)
	if avg := testing.AllocsPerRun(50, func() { c.Seed(7) }); avg != 0 {
		t.Fatalf("Seed allocates %v times per call, want 0", avg)
	}
}

func BenchmarkSeed(b *testing.B) {
	for _, tc := range fillParams {
		b.Run(tc.name, func(b *testing.B) {
			c := New(tc.p, 1)
			for i := 0; i < b.N; i++ {
				c.Seed(uint64(i))
			}
		})
	}
}

func BenchmarkFillUint32(b *testing.B) {
	for _, tc := range fillParams {
		b.Run(tc.name, func(b *testing.B) {
			c := New(tc.p, 1)
			buf := make([]uint32, 4096)
			b.SetBytes(4 * int64(len(buf)))
			for i := 0; i < b.N; i++ {
				c.FillUint32(buf)
			}
		})
	}
}
