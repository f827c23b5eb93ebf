package gamma

import (
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
)

// BlockScratch holds the preallocated intermediate buffers CycleBlock
// needs for one block of attempts. One scratch serves any number of
// CycleBlock calls (and any transform) up to its capacity; the engine
// keeps one per work-item goroutine so the steady-state loop never
// allocates.
type BlockScratch struct {
	capacity int
	w0a      []uint32  // normal-candidate words (MT0a), one per attempt
	w0b      []uint32  // second-stream words (MT0b), up to two per attempt
	w1       []uint32  // rejection uniforms (MT1), one per valid normal
	w2       []uint32  // correction uniforms (MT2), one per accepted
	normals  []float32 // normal candidates
	nok      []bool    // normal validity
	dv       []float64 // unscaled Marsaglia-Tsang candidates
	acc      []bool    // acceptance flags
	pw       []float64 // correction powers of the accepted candidates
	out      []float32 // accepted-output staging for ConsumeBlock/Pipe
}

// NewBlockScratch returns scratch sized for blocks of up to n attempts.
func NewBlockScratch(n int) *BlockScratch {
	return &BlockScratch{
		capacity: n,
		w0a:      make([]uint32, n),
		w0b:      make([]uint32, 2*n), // ziggurat draws two MT0b words per attempt
		w1:       make([]uint32, n),
		w2:       make([]uint32, n),
		normals:  make([]float32, n),
		nok:      make([]bool, n),
		dv:       make([]float64, n),
		acc:      make([]bool, n),
		pw:       make([]float64, n),
		out:      make([]float32, n),
	}
}

// Cap returns the maximum attempts per CycleBlock call.
func (s *BlockScratch) Cap() int { return s.capacity }

// CycleBlock executes `attempts` pipeline iterations in one batch,
// appending the valid outputs to dst[:0]-style storage (dst must have
// room for up to `attempts` values from index 0) and returning how many
// were produced. It is the block-compute equivalent of calling CycleStep
// `attempts` times and keeping the Valid results, and produces the
// bitwise-identical values in the identical order:
//
//   - MT0a/MT0b advance on every cycle, so the block path bulk-fills
//     exactly `attempts` (and, for the two-word transforms, 2·attempts)
//     words from them.
//   - MT1 advances only on normal-valid cycles, so the k-th valid normal
//     is paired with the k-th word of a V-word bulk fill.
//   - MT2 advances only on accepted cycles, so the k-th accepted
//     candidate is paired with the k-th word of an A-word bulk fill.
//
// The generator's cycle/valid/accept counters advance exactly as on the
// one-word path, and the one-word path can resume afterwards (a gated
// Next(enable=false) re-reads the first unconsumed word of each stream).
// attempts must not exceed s.Cap(). CycleBlock performs no allocation.
func (g *Generator) CycleBlock(dst []float32, attempts int, s *BlockScratch) (produced int) {
	if attempts > s.capacity {
		panic("gamma: CycleBlock attempts exceed scratch capacity")
	}
	if attempts <= 0 {
		return 0
	}

	w1 := s.w0a[:attempts]
	g.mt0a.FillUint32(w1)
	var w2 []uint32
	switch g.transform {
	case normal.MarsagliaBray:
		w2 = s.w0b[:attempts]
		g.mt0b.FillUint32(w2)
	case normal.Ziggurat:
		w2 = s.w0b[:2*attempts]
		g.mt0b.FillUint32(w2)
	}

	normals := s.normals[:attempts]
	nok := s.nok[:attempts]
	nvalid := normal.FillNormal(g.transform, normals, nok, w1, w2)

	u1 := s.w1[:nvalid]
	g.mt1.FillUint32(u1)
	dv := s.dv[:attempts]
	acc := s.acc[:attempts]
	accepted := g.p.CandidateBlock(dv, acc, normals, nok, u1)

	u2 := s.w2[:accepted]
	g.mt2.FillUint32(u2)
	// Compact the accepted candidates to the front of dv (branch-free:
	// every slot is copied, the cursor advances on accepted ones), then
	// finish them as one block.
	for i, a := range acc {
		dv[produced] = dv[i]
		if a {
			produced++
		}
	}
	g.p.FinishBlock(dst[:produced], dv[:produced], u2, s.pw)

	g.cycles += uint64(attempts)
	g.normalValid += uint64(nvalid)
	g.accepted += uint64(accepted)
	if g.tripHist != nil {
		// Same trip accounting as the gated path, replayed over the
		// block's acceptance flags into a block-local batch that is
		// published with one flush; sinceAccept carries a partial trip
		// across block boundaries and into gated cycles.
		var trips telemetry.HistogramBatch
		for i := 0; i < attempts; i++ {
			g.sinceAccept++
			if acc[i] {
				trips.Record(g.sinceAccept)
				g.sinceAccept = 0
			}
		}
		g.tripHist.RecordBatch(&trips)
	}
	return produced
}
