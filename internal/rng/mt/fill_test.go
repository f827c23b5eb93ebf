package mt

import (
	"encoding/binary"
	"strconv"
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

// fillKernels are the two FillUint32 datapaths of the Table I sets: the
// AVX2 kernels of fill_amd64.s and the Go lanes of mt.go.
var fillKernels = []struct {
	name string
	avx2 bool
}{{"avx2", true}, {"go", false}}

// setAVX2 points the fills at one datapath and returns a func that
// restores the previous one.
func setAVX2(on bool) (restore func()) {
	old := useAVX2
	useAVX2 = on
	return func() { useAVX2 = old }
}

// forEachKernel runs f once per fill datapath, as the subtests "avx2"
// and "go"; the "avx2" case skips on a CPU without AVX2.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, k := range fillKernels {
		t.Run(k.name, func(t *testing.T) {
			if k.avx2 && !cpuHasAVX2() {
				t.Skip("CPU lacks AVX2")
			}
			t.Cleanup(setAVX2(k.avx2))
			f(t)
		})
	}
}

// TestFillUint32MatchesScalar cross-checks the block fill against the
// one-word path over several state wrap-arounds and at chunk sizes that
// straddle every segment boundary of the block regeneration.
func TestFillUint32MatchesScalar(t *testing.T) {
	for _, tc := range fillParams {
		t.Run(tc.name, func(t *testing.T) {
			forEachKernel(t, func(t *testing.T) {
				for _, chunk := range []int{1, 2, 3, 8, 9, 16, 17, 18, 34, tc.p.N - tc.p.M, tc.p.N - 1, tc.p.N, tc.p.N + 1, 3*tc.p.N + 7} {
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
		})
	}
}

// TestFillUint32DrainsPeekCache verifies that a pending Peek cache (a
// computed-but-unconsumed word from the gated path) is emitted as the
// first word of a subsequent fill.
func TestFillUint32DrainsPeekCache(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		c := New(MT521Params, 9)
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
	})
}

// TestGatedReReadAfterFill is the regression required by the block-path
// contract: after a FillUint32, a gated Next(enable=false) must observe
// the next word of the stream and re-read it on every disabled cycle,
// exactly as on the pure one-word path.
func TestGatedReReadAfterFill(t *testing.T) {
	for _, tc := range fillParams {
		t.Run(tc.name, func(t *testing.T) {
			forEachKernel(t, func(t *testing.T) {
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
				// The held word is finally consumed, then the streams stay
				// in lockstep.
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
			forEachKernel(t, func(t *testing.T) {
				if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// FuzzFillUint32 checks the block fill against the one-word Uint32
// oracle on both Table I sets and both fill datapaths: it consumes pre
// words one at a time, which sets the state index the first fill starts
// from, then fills the lengths lens encodes (little-endian uint16 pairs,
// each taken modulo 1300, so a fill can span two MT19937 blocks). The
// committed seeds start at the MT19937 segment edges 226, 227, 623, 624
// and 625 and at the MT521 block edges 16, 17, 18, 33 and 34.
func FuzzFillUint32(f *testing.F) {
	f.Add(uint64(1), uint16(0), []byte{8, 0, 17, 0, 0x70, 0x02})
	f.Fuzz(func(t *testing.T, seed uint64, pre uint16, lens []byte) {
		if len(lens) > 64 {
			lens = lens[:64]
		}
		for _, p := range []Params{MT19937Params, MT521Params} {
			for _, k := range fillKernels {
				if k.avx2 && !cpuHasAVX2() {
					continue
				}
				t.Cleanup(setAVX2(k.avx2))
				blk := New(p, seed)
				ref := New(p, seed)
				for i := 0; i < int(pre)%2048; i++ {
					if blk.Uint32() != ref.Uint32() {
						t.Fatalf("N=%d: one-word streams differ", p.N)
					}
				}
				var buf [1300]uint32
				for i := 0; i+1 < len(lens); i += 2 {
					n := int(binary.LittleEndian.Uint16(lens[i:])) % len(buf)
					blk.FillUint32(buf[:n])
					for j, got := range buf[:n] {
						if want := ref.Uint32(); got != want {
							t.Fatalf("N=%d %s: fill %d word %d = %#x, Uint32 gives %#x", p.N, k.name, i/2, j, got, want)
						}
					}
				}
			}
		}
	})
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

// BenchmarkFillUint32 times FillUint32 per parameter set, datapath and
// fill length: 1, 9, 128 and 256 words are the lengths the engine's
// per-block fills issue, 4096 the bulk rate. Every core starts at state
// index 5, off any segment or block boundary. The non-Table-I set takes
// the one-word fallback and has only the "go" datapath.
//
//	go test -run '^$' -bench BenchmarkFillUint32 ./internal/rng/mt
func BenchmarkFillUint32(b *testing.B) {
	for _, tc := range fillParams {
		b.Run(tc.name, func(b *testing.B) {
			kernels := fillKernels
			if tc.p != MT19937Params && tc.p != MT521Params {
				kernels = fillKernels[1:]
			}
			for _, k := range kernels {
				b.Run(k.name, func(b *testing.B) {
					if k.avx2 && !cpuHasAVX2() {
						b.Skip("CPU lacks AVX2")
					}
					b.Cleanup(setAVX2(k.avx2))
					for _, n := range []int{1, 9, 128, 256, 4096} {
						b.Run(strconv.Itoa(n), func(b *testing.B) {
							c := New(tc.p, 1)
							c.FillUint32(make([]uint32, 5))
							buf := make([]uint32, n)
							b.SetBytes(4 * int64(n))
							for i := 0; i < b.N; i++ {
								c.FillUint32(buf)
							}
						})
					}
				})
			}
		})
	}
}
