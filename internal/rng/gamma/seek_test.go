package gamma

import (
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

// TestJumpStreamsMatchesAdvanceStreams: the O(log n) generator seek must
// land every one of the four gated twisters bitwise where the sequential
// walk lands it, and the gamma outputs that follow must be identical.
func TestJumpStreamsMatchesAdvanceStreams(t *testing.T) {
	for _, mtp := range []mt.Params{mt.MT19937Params, mt.MT521Params} {
		jumped := NewGenerator(normal.MarsagliaBray, mtp, MustFromVariance(1.39), 777)
		stepped := NewGenerator(normal.MarsagliaBray, mtp, MustFromVariance(1.39), 777)
		const n = 100003
		jumped.JumpStreams(n)
		stepped.AdvanceStreams(n)
		jo, so := jumped.StreamOffsets(), stepped.StreamOffsets()
		if jo != so {
			t.Fatalf("N=%d: stream offsets diverge: %v vs %v", mtp.N, jo, so)
		}
		if jo != [4]uint64{n, n, n, n} {
			t.Fatalf("N=%d: offsets after seek = %v", mtp.N, jo)
		}
		got := 0
		for cycle := 0; cycle < 4096 && got < 64; cycle++ {
			a := jumped.CycleStep()
			b := stepped.CycleStep()
			if a != b {
				t.Fatalf("N=%d: cycle %d after seek: %+v vs %+v", mtp.N, cycle, a, b)
			}
			if a.Valid {
				got++
			}
		}
		if got < 64 {
			t.Fatalf("N=%d: only %d accepted outputs in 4096 cycles", mtp.N, got)
		}
	}
}

// TestReseedResetsStreamOffsets: pooled generators are recycled via
// Reseed; any jump offset from a previous run must vanish, restoring
// NewGenerator-equivalence.
func TestReseedResetsStreamOffsets(t *testing.T) {
	used := NewGenerator(normal.MarsagliaBray, mt.MT521Params, MustFromVariance(1.39), 5)
	used.JumpStreams(1 << 20)
	used.Reseed(42)

	fresh := NewGenerator(normal.MarsagliaBray, mt.MT521Params, MustFromVariance(1.39), 42)
	if used.StreamOffsets() != ([4]uint64{}) {
		t.Fatalf("offsets survive Reseed: %v", used.StreamOffsets())
	}
	for cycle := 0; cycle < 512; cycle++ {
		a := used.CycleStep()
		b := fresh.CycleStep()
		if a != b {
			t.Fatalf("cycle %d: reseeded generator diverges from fresh one", cycle)
		}
	}
}

// StreamOffsets reports the word offsets of the four twister streams
// since their last reseed — the generator-level checkpoint tuple.
func (g *Generator) StreamOffsets() [4]uint64 {
	return [4]uint64{g.mt0a.Offset(), g.mt0b.Offset(), g.mt1.Offset(), g.mt2.Offset()}
}
