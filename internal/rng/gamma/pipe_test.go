package gamma

import (
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
)

// TestPipeMatchesGatedNext is the pipe's contract: drawing exactly
// total values through a Pipe yields the same value sequence, the same
// end-state cycle/accept counters and the same rejection-trip records
// as total calls to Generator.Next() — for totals below one block,
// exactly one block, one past the boundary, and many blocks plus a
// tail, across block sizes down to one attempt.
func TestPipeMatchesGatedNext(t *testing.T) {
	rec := telemetry.New(8)
	for _, attempts := range []int{1, 7, 64} {
		for _, total := range []int64{1, 2, 63, 64, 65, 127, 128, 1000} {
			pg := NewGenerator(normal.MarsagliaBray, mt.MT521Params, MustFromVariance(1.39), 77)
			gg := NewGenerator(normal.MarsagliaBray, mt.MT521Params, MustFromVariance(1.39), 77)
			ph := rec.Histogram("test.pipe-trips", "trips", "piped trip records")
			gh := rec.Histogram("test.gated-trips", "trips", "gated trip records")
			pg.InstrumentTrips(ph)
			gg.InstrumentTrips(gh)

			pipe := NewPipe(pg, total, attempts, NewBlockScratch(attempts))
			for i := int64(0); i < total; i++ {
				got, want := pipe.Next(), gg.Next()
				if got != want {
					t.Fatalf("attempts=%d total=%d value %d: piped %x, gated %x",
						attempts, total, i, got, want)
				}
			}
			if pg.Cycles() != gg.Cycles() || pg.Accepted() != gg.Accepted() {
				t.Fatalf("attempts=%d total=%d end state: piped (cycles %d, accepted %d), gated (%d, %d)",
					attempts, total, pg.Cycles(), pg.Accepted(), gg.Cycles(), gg.Accepted())
			}
			ps, gs := ph.Snapshot(), gh.Snapshot()
			if ps.Count != gs.Count || ps.Sum != gs.Sum || ps.Buckets != gs.Buckets {
				t.Fatalf("attempts=%d total=%d trip records diverge: piped count=%d sum=%d, gated count=%d sum=%d",
					attempts, total, ps.Count, ps.Sum, gs.Count, gs.Sum)
			}
		}
	}
}

// TestPipeQuotaSweep runs every transform's pipe at totals of 1, one
// short of and one past a 64-attempt block (the creditrisk block size),
// and just under two such blocks; with 256-attempt blocks every total
// sits below one block. The drawn values, the end-state counters and the
// whole trip-histogram snapshot (buckets, count, sum, max, percentiles)
// must equal those of the same number of Next() calls.
func TestPipeQuotaSweep(t *testing.T) {
	for _, tr := range blockTransforms {
		for _, attempts := range []int{64, 256} {
			for _, total := range []int64{1, 63, 65, 127} {
				pg := NewGenerator(tr, mt.MT19937Params, MustFromVariance(0.7), 5)
				gg := NewGenerator(tr, mt.MT19937Params, MustFromVariance(0.7), 5)
				ph := telemetry.New(8).Histogram("trips", "trips", "trip records")
				gh := telemetry.New(8).Histogram("trips", "trips", "trip records")
				pg.InstrumentTrips(ph)
				gg.InstrumentTrips(gh)
				pipe := NewPipe(pg, total, attempts, NewBlockScratch(attempts))
				for i := int64(0); i < total; i++ {
					if got, want := pipe.Next(), gg.Next(); got != want {
						t.Fatalf("%v attempts=%d total=%d value %d: piped %x, gated %x",
							tr, attempts, total, i, got, want)
					}
				}
				if pg.Cycles() != gg.Cycles() || pg.NormalValid() != gg.NormalValid() || pg.Accepted() != gg.Accepted() {
					t.Fatalf("%v attempts=%d total=%d end state: piped (%d,%d,%d), gated (%d,%d,%d)",
						tr, attempts, total, pg.Cycles(), pg.NormalValid(), pg.Accepted(),
						gg.Cycles(), gg.NormalValid(), gg.Accepted())
				}
				if ps, gs := ph.Snapshot(), gh.Snapshot(); ps != gs {
					t.Fatalf("%v attempts=%d total=%d trip histograms diverge:\npiped %+v\ngated %+v",
						tr, attempts, total, ps, gs)
				}
			}
		}
	}
}

// TestConsumeBlock: the hand-off invokes consume exactly once per
// non-empty block with a view of the accepted prefix, and the values
// match the equivalent Next() sequence.
func TestConsumeBlock(t *testing.T) {
	g := NewGenerator(normal.ICDFCUDA, mt.MT19937Params, MustFromVariance(0.8), 13)
	ref := NewGenerator(normal.ICDFCUDA, mt.MT19937Params, MustFromVariance(0.8), 13)
	s := NewBlockScratch(32)
	var drained []float32
	calls := 0
	for len(drained) < 200 {
		n := g.ConsumeBlock(32, s, func(vals []float32) {
			calls++
			drained = append(drained, vals...)
		})
		if n < 0 || n > 32 {
			t.Fatalf("ConsumeBlock returned %d outputs from 32 attempts", n)
		}
	}
	if calls == 0 {
		t.Fatal("consume callback never invoked")
	}
	for i, v := range drained {
		if want := ref.Next(); v != want {
			t.Fatalf("value %d: consumed %x, gated %x", i, v, want)
		}
	}
}

// TestPipeValidation: block sizes outside the scratch capacity are
// programming errors and must panic at construction.
func TestPipeValidation(t *testing.T) {
	g := NewGenerator(normal.MarsagliaBray, mt.MT521Params, MustFromVariance(1.39), 1)
	s := NewBlockScratch(8)
	for _, attempts := range []int{0, -1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("blockAttempts=%d accepted, want panic", attempts)
				}
			}()
			NewPipe(g, 100, attempts, s)
		}()
	}
}
